type compiled_slot = {
  compiled : Acl_compiled.t;
  acl_generation : int;
      (* the metadata generation the ACL was read under; the slot is
         valid only while the object's generation still equals it *)
}

type t = {
  id : int;
  mutable owner : Principal.individual;
  mutable acl : Acl.t;
  mutable klass : Security_class.t;
  mutable integrity : Security_class.t option;
  generation : int Atomic.t;
  mutable compiled : compiled_slot option;
}

let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

let make ~owner ?acl ?integrity klass =
  let acl =
    match acl with
    | Some acl -> acl
    | None -> Acl.owner_default owner
  in
  {
    id = fresh_id ();
    owner;
    acl;
    klass;
    integrity;
    generation = Atomic.make 0;
    compiled = None;
  }

let copy meta =
  {
    id = fresh_id ();
    owner = meta.owner;
    acl = meta.acl;
    klass = meta.klass;
    integrity = meta.integrity;
    generation = Atomic.make 0;
    compiled = None;
  }

let generation meta = Atomic.get meta.generation

(* Publication order: every setter below lands its field write first
   and bumps the generation after.  A reader that (a) reads the
   generation, (b) recomputes from the fields, and (c) stores the
   result under the generation read in (a) can therefore never
   produce an entry that outlives the mutation: either the read
   generation predates the bump (the entry is born stale and fails
   validation on its next lookup) or it includes the bump, in which
   case the atomic read synchronizes with the increment and the field
   writes are visible. *)
let touch meta = Atomic.incr meta.generation

let set_owner meta owner =
  meta.owner <- owner;
  touch meta

let set_acl_raw meta acl =
  meta.acl <- acl;
  touch meta

let set_klass_raw meta klass =
  meta.klass <- klass;
  touch meta

let set_integrity_raw meta integrity =
  meta.integrity <- integrity;
  touch meta

(* The miss: compile the ACL read after [acl_generation] and store it
   under that generation.  Out of line, so the hit inlines into the
   decision. *)
let recompile meta snapshot acl_generation =
  let compiled = Acl_compiled.compile_in snapshot meta.acl in
  meta.compiled <- Some { compiled; acl_generation };
  compiled

let[@inline] compiled_in meta snapshot =
  (* The metadata generation is read BEFORE the slot (and, on a miss,
     before the ACL field): a racing set_acl then lands a bump above
     the value validated or stamped here, so a stale slot can never
     validate again.  The registrations need no such order: the form
     records the count it saw, and ids never change.  Membership is no
     part of the form (checks read it from the snapshot they are
     given), so churn leaves the slot in place.
     The slot is one immutable record behind a single mutable pointer,
     so concurrent readers see a consistent (compiled, acl_generation)
     pair; racing writers overwrite each other with equally valid
     slots. *)
  let acl_generation = Atomic.get meta.generation in
  match meta.compiled with
  | Some slot
    when slot.acl_generation = acl_generation
         && Acl_compiled.valid_for slot.compiled snapshot ->
    slot.compiled
  | Some _ | None -> recompile meta snapshot acl_generation

let compiled_acl meta ~db = compiled_in meta (Principal.Db.snapshot db)

let pp ppf meta =
  Format.fprintf ppf "owner=%a class=%a acl=%a" Principal.pp_individual meta.owner
    Security_class.pp meta.klass Acl.pp meta.acl
