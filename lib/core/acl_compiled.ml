(* The compiled form of an ACL: the three precedence tiers flattened
   into packed allow/deny mode-mask integers keyed by the interned
   principal ids of a Principal.Db.Snapshot.  A check is a handful of
   bitwise operations and allocates nothing when it grants.  A denial
   names the deny entry that decided, read from the form's own
   snapshot (see [group_denies]), so the monitor never falls back to
   the interpreted walk.

   The form is the entries themselves, interned and sorted: an (id,
   mask) table for the individuals the ACL names and a (group-id,
   mask) table for its group entries, resolved per check against the
   subject's sorted snapshot row.  O(log entries + group entries x
   log row) per check, O(entries) words per compiled ACL whatever the
   population, so every object's metadata can cache one even at a
   million principals.  ACLs are short (tens of entries), so the check
   stays tens of nanoseconds and still allocates nothing. *)

(* Each mask packs allow bits in the low byte and deny bits in the
   next byte (8 access modes fit in 8 bits). *)
let deny_shift = 8

(* Unused here; see the interface. *)
let dense_limit = 4096

(* A group-tier deny entry, kept in ACL order: the group masks only
   say that some deny decided, and the first of these whose group
   holds the subject is the entry the interpreted walk would name. *)
type group_deny = {
  deny_group : int;  (* interned group id *)
  deny_bits : int;  (* the entry's deny mask, shifted as above *)
  deny_who : Acl.who;
}

type t = {
  snapshot : Principal.Db.Snapshot.t;
  ind_ids : int array;  (* sorted ids of ACL-named individuals *)
  ind_masks : int array;  (* parallel to [ind_ids] *)
  group_ids : int array;  (* sorted ids of ACL-named groups *)
  group_masks : int array;  (* parallel to [group_ids] *)
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

(* Sort (key, mask) pairs by key and OR together the masks of equal
   keys, so entries naming the same principal combine: O(n log n) in
   the ACL's length.  Returns the parallel key and mask arrays. *)
let merge_keyed compare pairs =
  let merged =
    List.fold_left
      (fun acc (key, mask) ->
        match acc with
        | (prior_key, prior) :: rest when compare prior_key key = 0 ->
          (key, prior lor mask) :: rest
        | _ -> (key, mask) :: acc)
      []
      (List.sort (fun (a, _) (b, _) -> compare a b) pairs)
  in
  let merged = List.rev merged in
  Array.of_list (List.map fst merged), Array.of_list (List.map snd merged)

let compile ~db acl =
  let snapshot = Principal.Db.snapshot db in
  let evr_mask = ref 0 in
  let named = ref [] in
  let grouped = ref [] in
  let extras = ref [] in
  let group_denies = ref [] in
  List.iter
    (fun (entry : Acl.entry) ->
      let mask = shifted_mask entry in
      match entry.Acl.who with
      | Acl.Everyone -> evr_mask := !evr_mask lor mask
      | Acl.Individual ind -> (
        match Principal.Db.Snapshot.individual_id snapshot ind with
        | -1 -> extras := (Principal.individual_name ind, mask) :: !extras
        | id -> named := (id, mask) :: !named)
      | Acl.Group grp -> (
        match Principal.Db.Snapshot.group_id snapshot grp with
        | -1 ->
          (* An unregistered group has no members and can match
             nobody, exactly as in the interpreted walk, so it
             compiles away.  Registering it with members bumps the
             database generation and forces a recompile. *)
          ()
        | group_id ->
          grouped := (group_id, mask) :: !grouped;
          match entry.Acl.sign with
          | Acl.Deny ->
            group_denies :=
              { deny_group = group_id; deny_bits = mask; deny_who = entry.Acl.who }
              :: !group_denies
          | Acl.Allow -> ()))
    (Acl.entries acl);
  let ind_ids, ind_masks = merge_keyed Int.compare !named in
  let group_ids, group_masks = merge_keyed Int.compare !grouped in
  let extra_names, extra_masks = merge_keyed String.compare !extras in
  {
    snapshot;
    ind_ids;
    ind_masks;
    group_ids;
    group_masks;
    extra_names;
    extra_masks;
    evr_mask = !evr_mask;
    group_denies = Array.of_list (List.rev !group_denies);
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

(* Binary search over the sorted id table; top-level so the check
   allocates nothing.  Typed [int] so the comparisons compile to
   machine compares, not calls into the polymorphic compare. *)
let rec keyed_mask (ids : int array) masks (target : int) lo hi =
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
   check allocates nothing. *)
let rec group_tier_mask snapshot group_ids group_masks id k acc =
  if k >= Array.length group_ids then acc
  else
    group_tier_mask snapshot group_ids group_masks id (k + 1)
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
    else keyed_mask compiled.ind_ids compiled.ind_masks id 0 (Array.length compiled.ind_ids)
  in
  if ind_mask land deny_bit <> 0 then Denied (Acl.Individual subject)
  else if ind_mask land allow_bit <> 0 then Granted
  else begin
    let grp_mask =
      if id < 0 then 0
      else group_tier_mask compiled.snapshot compiled.group_ids compiled.group_masks id 0 0
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
