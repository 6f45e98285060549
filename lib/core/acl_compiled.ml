(* The compiled form of an ACL: the three precedence tiers flattened
   into packed allow/deny mode-mask integers keyed by the interned
   principal ids of a Principal.Db.Snapshot.  A check is a handful of
   bitwise operations and allocates nothing when it grants.  A denial
   names the deny entry that decided, read from the form's own
   snapshot (see [group_denies]), so the monitor never falls back to
   the interpreted walk.

   Two storage shapes, chosen at compile time by population size:

   - Dense: one mask slot per registered individual, group entries
     pre-flattened through the closure into the per-individual
     group-tier mask.  O(1) loads per check, but O(population) words
     per compiled ACL — the right trade below a few thousand
     principals, ruinous at a million (every object's metadata caches
     a compiled form; dense forms at 10^6 principals would cost 16 MB
     per object).

   - Sparse: the entries themselves, interned and sorted — a (id,
     mask) table for the individuals the ACL names and a (group-id,
     mask) table for its group entries, resolved per check against the
     subject's sorted snapshot row.  O(log entries + group entries x
     log row) per check, O(entries) words per compiled ACL.  ACLs are
     short (tens of entries), so the check stays tens of nanoseconds
     and still allocates nothing. *)

(* Each mask packs allow bits in the low byte and deny bits in the
   next byte (8 access modes fit in 8 bits). *)
let deny_shift = 8

(* Populations up to this size compile dense; above it, sparse.  The
   cut keeps the per-object memory bill bounded by the ACL, not the
   principal database, once the population outgrows the point where
   dense mask rows still fit comfortably in cache. *)
let dense_limit = 4096

type tiers =
  | Dense of {
      ind_masks : int array;
          (* individual-tier masks, indexed by interned individual id *)
      grp_masks : int array;
          (* group-tier masks flattened per individual: the union of
             every group entry whose group transitively contains the
             individual *)
    }
  | Sparse of {
      ind_ids : int array;  (* sorted ids of ACL-named individuals *)
      ind_id_masks : int array;  (* parallel to [ind_ids] *)
      group_ids : int array;  (* ids of ACL-named groups *)
      group_masks : int array;  (* parallel to [group_ids] *)
    }

(* A group-tier deny entry, kept in ACL order in both shapes: the
   masks above only say that some deny decided, and the first of these
   whose group holds the subject is the entry the interpreted walk
   would name. *)
type group_deny = {
  deny_group : int;  (* interned group id *)
  deny_bits : int;  (* the entry's deny mask, shifted as above *)
  deny_who : Acl.who;
}

type t = {
  snapshot : Principal.Db.Snapshot.t;
  tiers : tiers;
  extra_names : string array;
      (* ACL-mentioned individuals unknown to the snapshot (never
         registered in the database); matched by name on lookup *)
  extra_masks : int array;
  evr_mask : int;
  group_denies : group_deny array;
}

type verdict =
  | Granted
  | Denied of Acl.who
  | No_entry

let db_generation compiled = Principal.Db.Snapshot.generation compiled.snapshot
let snapshot compiled = compiled.snapshot

let shifted_mask (entry : Acl.entry) =
  let modes = Access_mode.Set.to_int entry.Acl.modes in
  match entry.Acl.sign with
  | Acl.Allow -> modes
  | Acl.Deny -> modes lsl deny_shift

(* Merge [mask] into the slot for [key] in an (int key, mask) assoc
   accumulator: entries naming the same principal OR together, exactly
   as the dense arrays OR them. *)
let add_keyed slot key mask =
  match List.assoc_opt key !slot with
  | Some prior -> slot := (key, prior lor mask) :: List.remove_assoc key !slot
  | None -> slot := (key, mask) :: !slot

let compile_dense ~snapshot ~count ~add_extra ~evr_mask entries =
  let ind_masks = Array.make (Stdlib.max 1 count) 0 in
  let grp_masks = Array.make (Stdlib.max 1 count) 0 in
  List.iter
    (fun (entry : Acl.entry) ->
      let mask = shifted_mask entry in
      match entry.Acl.who with
      | Acl.Everyone -> evr_mask := !evr_mask lor mask
      | Acl.Individual ind -> (
        match Principal.Db.Snapshot.individual_id snapshot ind with
        | -1 -> add_extra (Principal.individual_name ind) mask
        | id -> ind_masks.(id) <- ind_masks.(id) lor mask)
      | Acl.Group grp ->
        let group_id = Principal.Db.Snapshot.group_id snapshot grp in
        (* The snapshot's per-group closure row walks exactly the
           members, so a group entry costs O(|closure|) rather than a
           membership probe per registered individual.  An
           unregistered group ([group_id = -1]) iterates nothing: it
           has no members and can match nobody, exactly as in the
           interpreted walk, so it compiles away.  Registering it with
           members bumps the database generation and forces a
           recompile. *)
        Principal.Db.Snapshot.iter_group_members snapshot ~group_id
          (fun individual_id ->
            grp_masks.(individual_id) <- grp_masks.(individual_id) lor mask))
    entries;
  Dense { ind_masks; grp_masks }

let compile_sparse ~snapshot ~add_extra ~evr_mask entries =
  let named = ref [] in
  let grouped = ref [] in
  List.iter
    (fun (entry : Acl.entry) ->
      let mask = shifted_mask entry in
      match entry.Acl.who with
      | Acl.Everyone -> evr_mask := !evr_mask lor mask
      | Acl.Individual ind -> (
        match Principal.Db.Snapshot.individual_id snapshot ind with
        | -1 -> add_extra (Principal.individual_name ind) mask
        | id -> add_keyed named id mask)
      | Acl.Group grp -> (
        match Principal.Db.Snapshot.group_id snapshot grp with
        | -1 -> ()  (* memberless, compiles away (as in the dense form) *)
        | gid -> add_keyed grouped gid mask))
    entries;
  let sorted slot = List.sort (fun (a, _) (b, _) -> Int.compare a b) !slot in
  let ids l = Array.of_list (List.map fst l) in
  let masks l = Array.of_list (List.map snd l) in
  let named = sorted named in
  let grouped = sorted grouped in
  Sparse
    {
      ind_ids = ids named;
      ind_id_masks = masks named;
      group_ids = ids grouped;
      group_masks = masks grouped;
    }

let compile ~db acl =
  let snapshot = Principal.Db.snapshot db in
  let count = Principal.Db.Snapshot.individual_count snapshot in
  let evr_mask = ref 0 in
  let extras = ref [] in
  let add_extra name mask =
    match List.assoc_opt name !extras with
    | Some prior -> extras := (name, prior lor mask) :: List.remove_assoc name !extras
    | None -> extras := (name, mask) :: !extras
  in
  let entries = Acl.entries acl in
  let tiers =
    if count <= dense_limit then compile_dense ~snapshot ~count ~add_extra ~evr_mask entries
    else compile_sparse ~snapshot ~add_extra ~evr_mask entries
  in
  let group_denies =
    List.filter_map
      (fun (entry : Acl.entry) ->
        match entry.Acl.who, entry.Acl.sign with
        | Acl.Group grp, Acl.Deny -> (
          (* Unregistered groups hold nobody and compile away. *)
          match Principal.Db.Snapshot.group_id snapshot grp with
          | -1 -> None
          | deny_group ->
            Some { deny_group; deny_bits = shifted_mask entry; deny_who = entry.Acl.who })
        | (Acl.Individual _ | Acl.Everyone), _ | Acl.Group _, Acl.Allow -> None)
      entries
  in
  {
    snapshot;
    tiers;
    extra_names = Array.of_list (List.map fst !extras);
    extra_masks = Array.of_list (List.map snd !extras);
    evr_mask = !evr_mask;
    group_denies = Array.of_list group_denies;
  }

(* Linear by-name scan over the (rare) ACL entries for principals the
   database has never registered; allocation-free. *)
let extra_mask compiled name =
  let n = Array.length compiled.extra_names in
  let rec find i =
    if i >= n then 0
    else if String.equal (Array.unsafe_get compiled.extra_names i) name then
      Array.unsafe_get compiled.extra_masks i
    else find (i + 1)
  in
  find 0

(* Binary search over the sparse (sorted) id table; top-level so the
   sparse check allocates nothing. *)
let rec keyed_mask ids masks target lo hi =
  if lo >= hi then 0
  else begin
    let mid = (lo + hi) lsr 1 in
    let v = Array.unsafe_get ids mid in
    if v = target then Array.unsafe_get masks mid
    else if v < target then keyed_mask ids masks target (mid + 1) hi
    else keyed_mask ids masks target lo mid
  end

(* The subject's group-tier mask, resolved per check: OR of every
   group entry whose closure row contains the subject.  ACLs carry few
   group entries, and each probe is a binary search of the subject's
   sorted row.  Top-level recursion (not an inner closure) so the
   sparse check, like the dense one, allocates nothing. *)
let rec sparse_grp_mask snapshot group_ids group_masks id k acc =
  if k >= Array.length group_ids then acc
  else
    sparse_grp_mask snapshot group_ids group_masks id (k + 1)
      (if
         Principal.Db.Snapshot.is_member snapshot ~individual_id:id
           ~group_id:(Array.unsafe_get group_ids k)
       then acc lor Array.unsafe_get group_masks k
       else acc)

(* The first group-tier deny entry, in ACL order, that covers the
   mode and whose group holds the subject.  Called only once the
   group-tier mask has the deny bit, which one of these entries set,
   so the scan always finds one; the trailing [Everyone] is never
   reached. *)
let rec first_group_deny snapshot denies id deny_bit k =
  if k >= Array.length denies then Acl.Everyone
  else begin
    let entry = Array.unsafe_get denies k in
    if
      entry.deny_bits land deny_bit <> 0
      && Principal.Db.Snapshot.is_member snapshot ~individual_id:id
           ~group_id:entry.deny_group
    then entry.deny_who
    else first_group_deny snapshot denies id deny_bit (k + 1)
  end

let check_id compiled ~id ~subject ~mode =
  let allow_bit = 1 lsl Access_mode.index mode in
  let deny_bit = allow_bit lsl deny_shift in
  let ind_mask =
    if id < 0 then extra_mask compiled (Principal.individual_name subject)
    else
      match compiled.tiers with
      | Dense dense -> Array.unsafe_get dense.ind_masks id
      | Sparse sparse ->
        keyed_mask sparse.ind_ids sparse.ind_id_masks id 0 (Array.length sparse.ind_ids)
  in
  if ind_mask land deny_bit <> 0 then Denied (Acl.Individual subject)
  else if ind_mask land allow_bit <> 0 then Granted
  else begin
    let grp_mask =
      if id < 0 then 0
      else
        match compiled.tiers with
        | Dense dense -> Array.unsafe_get dense.grp_masks id
        | Sparse sparse ->
          sparse_grp_mask compiled.snapshot sparse.group_ids sparse.group_masks id 0 0
    in
    if grp_mask land deny_bit <> 0 then
      Denied (first_group_deny compiled.snapshot compiled.group_denies id deny_bit 0)
    else if grp_mask land allow_bit <> 0 then Granted
    else if compiled.evr_mask land deny_bit <> 0 then Denied Acl.Everyone
    else if compiled.evr_mask land allow_bit <> 0 then Granted
    else No_entry
  end

let check compiled ~subject ~mode =
  check_id compiled
    ~id:(Principal.Db.Snapshot.individual_id compiled.snapshot subject)
    ~subject ~mode

let permits compiled ~subject ~mode =
  match check compiled ~subject ~mode with
  | Granted -> true
  | Denied _ | No_entry -> false

let verdict_class = function
  | Granted -> 0
  | Denied _ -> 1
  | No_entry -> 2
