type compiled_slot = Acl_compiled.t

type t = {
  id : int;
  owner : Principal.individual;
  acl : Acl.t;
  klass : Security_class.t;
  integrity : Security_class.t option;
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
  { id = fresh_id (); owner; acl; klass; integrity; compiled = None }

let copy meta = { meta with id = fresh_id (); compiled = None }
let with_acl meta acl = { meta with acl; compiled = None }
let with_klass meta klass = { meta with klass }
let with_integrity meta integrity = { meta with integrity }

(* The miss, out of line so the hit inlines into the decision. *)
let recompile meta snapshot =
  let compiled = Acl_compiled.compile_in snapshot meta.acl in
  meta.compiled <- Some compiled;
  compiled

let[@inline] compiled_in meta snapshot =
  match meta.compiled with
  | Some compiled when Acl_compiled.valid_for compiled snapshot -> compiled
  | Some _ | None -> recompile meta snapshot

let compiled_acl meta ~db = compiled_in meta (Principal.Db.snapshot db)

let pp ppf meta =
  Format.fprintf ppf "owner=%a class=%a acl=%a" Principal.pp_individual meta.owner
    Security_class.pp meta.klass Acl.pp meta.acl
