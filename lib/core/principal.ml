type individual = string
type group = string

let check_name kind name =
  if String.length name = 0 then
    invalid_arg (Printf.sprintf "Principal.%s: empty name" kind)

let individual name =
  check_name "individual" name;
  name

let group name =
  check_name "group" name;
  name

let individual_name name = name
let group_name name = name
let equal_individual = String.equal
let equal_group = String.equal
let compare_individual = String.compare
let compare_group = String.compare
let pp_individual = Format.pp_print_string
let pp_group = Format.pp_print_string

type member =
  | Ind of individual
  | Grp of group

module String_set = Set.Make (String)
module Int_set = Set.Make (Int)

module Db = struct
  (* A frozen, generation-stamped view of the database used by the
     compiled decision path (see Acl_compiled): individuals and groups
     interned to dense ids, transitive membership flattened into one
     sorted group-id row per individual and one sorted individual-id
     closure row per group.  Snapshots are immutable after
     construction, so readers in other domains may probe them without
     a lock; staleness is detected by comparing [snap_generation] with
     the live generation counter.

     Successive snapshots share structure: when the registered
     population is unchanged, a rebuild copies the row spines
     (pointer-sized per principal) and re-derives only the rows
     reachable from groups whose member list moved since the previous
     build — cost scales with the churn delta, not the population.
     The intern tables are shared by reference across generations. *)
  type snapshot = {
    snap_generation : int;
    ids : (string, int) Hashtbl.t;  (* individual name -> dense id *)
    id_count : int;
    group_ids : (string, int) Hashtbl.t;  (* group name -> dense id *)
    group_count : int;
    group_names : string array;  (* dense group id -> name, sorted *)
    rows : int array array;
        (* per individual id: the sorted dense ids of every group the
           individual transitively belongs to *)
    group_rows : int array array;
        (* per group id: the sorted dense ids of every individual in
           the group's transitive closure; the delta refresh diffs a
           recomputed closure against it *)
  }

  type t = {
    mutable individual_set : String_set.t;
    mutable individual_count : int;  (* cardinal of individual_set, O(1) *)
    members : (group, member list ref) Hashtbl.t;
    parents : (group, String_set.t ref) Hashtbl.t;
        (* reverse membership: the groups that directly contain the
           key group; drives the dirty-closure walk of delta rebuilds *)
    dirty : (group, int ref) Hashtbl.t;
        (* the generation at which the group's member list last
           changed; a snapshot built at generation g covers every mark
           <= g, so a rebuild from it need only revisit groups marked
           above g.  Slots are created at registration and only their
           contents change during churn, mirroring [members]. *)
    generation : int Atomic.t;
    snapshot_slot : snapshot option Atomic.t;
    batch_epoch : int Atomic.t;
        (* seqlock-style batch marker: odd while the outermost batch is
           in flight (incremented at entry and again at exit, after the
           final generation bump).  [snapshot] reads it around every
           rebuild: a rebuild that overlaps a batch may have walked
           partially applied member lists under an unmoved generation,
           so it must not be published or served as current. *)
    mutable batch_depth : int;
    mutable batch_pending : bool;
  }

  let create () =
    {
      individual_set = String_set.empty;
      individual_count = 0;
      members = Hashtbl.create 16;
      parents = Hashtbl.create 16;
      dirty = Hashtbl.create 16;
      generation = Atomic.make 0;
      snapshot_slot = Atomic.make None;
      batch_epoch = Atomic.make 0;
      batch_depth = 0;
      batch_pending = false;
    }

  let generation db = Atomic.get db.generation

  let add_individual db ind =
    if not (String_set.mem ind db.individual_set) then begin
      db.individual_set <- String_set.add ind db.individual_set;
      db.individual_count <- db.individual_count + 1
    end

  let member_slot db grp =
    match Hashtbl.find_opt db.members grp with
    | Some slot -> slot
    | None ->
      let slot = ref [] in
      Hashtbl.add db.members grp slot;
      (* Companion slots, so churn after registration never has to
         restructure a table (the registration-is-setup-time contract
         in the mli). *)
      if not (Hashtbl.mem db.parents grp) then
        Hashtbl.add db.parents grp (ref String_set.empty);
      if not (Hashtbl.mem db.dirty grp) then Hashtbl.add db.dirty grp (ref 0);
      slot

  let parent_slot db grp =
    match Hashtbl.find_opt db.parents grp with
    | Some slot -> slot
    | None ->
      let slot = ref String_set.empty in
      Hashtbl.add db.parents grp slot;
      slot

  let add_group db grp = ignore (member_slot db grp)

  let member_equal a b =
    match a, b with
    | Ind i, Ind j -> equal_individual i j
    | Grp g, Grp h -> equal_group g h
    | Ind _, Grp _ | Grp _, Ind _ -> false

  (* Publish one mutation: inside a batch the generation bump is
     deferred (and coalesced) to the end of the outermost batch;
     outside, it lands immediately.  Either way the member-list write
     precedes the bump — the data-then-generation contract readers
     rely on is unchanged, the batch merely widens the window between
     data landing and publication. *)
  let publish db =
    if db.batch_depth > 0 then db.batch_pending <- true
    else Atomic.incr db.generation

  (* Stamp the group's member list as changed at the generation the
     mutation will publish under (current + 1; inside a batch every
     mutation shares the single deferred bump).  Written BEFORE the
     generation bump, so a builder whose stamp validates has seen the
     mark. *)
  let mark_dirty db grp =
    match Hashtbl.find_opt db.dirty grp with
    | Some slot -> slot := Atomic.get db.generation + 1
    | None -> Hashtbl.add db.dirty grp (ref (Atomic.get db.generation + 1))

  let batch db f =
    (* The epoch goes odd BEFORE any batch mutation can land and even
       again only AFTER the final generation bump, so a snapshot
       builder that saw an even epoch on both sides of its membership
       walk is guaranteed no batch overlapped the walk. *)
    if db.batch_depth = 0 then Atomic.incr db.batch_epoch;
    db.batch_depth <- db.batch_depth + 1;
    Fun.protect f ~finally:(fun () ->
        db.batch_depth <- db.batch_depth - 1;
        if db.batch_depth = 0 then begin
          if db.batch_pending then begin
            db.batch_pending <- false;
            (* Every member-list write and dirty mark of the batch is
               already in place: the single bump publishes them all. *)
            Atomic.incr db.generation
          end;
          Atomic.incr db.batch_epoch
        end)

  let in_batch db = db.batch_depth > 0

  (* Does [target] appear, transitively, among the member groups of
     [grp]?  Used to reject membership cycles.  Read-only: an unknown
     group has no members, so probing it must not register it — the
     validation pass of [add_member] runs before any mutation.  The
     visited set keeps the walk linear in the number of edges even
     when nested groups are shared along many paths (a deep DAG would
     otherwise be re-walked exponentially often). *)
  let reaches db grp target =
    let visited = Hashtbl.create 16 in
    let rec walk grp =
      equal_group grp target
      || (not (Hashtbl.mem visited grp)
         && begin
              Hashtbl.add visited grp ();
              List.exists
                (function
                  | Ind _ -> false
                  | Grp nested -> walk nested)
                (match Hashtbl.find_opt db.members grp with
                | Some slot -> !slot
                | None -> [])
            end)
    in
    walk grp

  (* Validate first, mutate only on success: a rejected insertion must
     leave the database — registered groups, member lists and the
     generation — exactly as it found it. *)
  let add_member db grp member =
    (match member with
    | Ind _ -> ()
    | Grp nested ->
      if reaches db nested grp then
        invalid_arg
          (Printf.sprintf "Principal.Db.add_member: %s <- %s would create a cycle"
             grp nested));
    (match member with
    | Ind ind -> add_individual db ind
    | Grp nested -> add_group db nested);
    let slot = member_slot db grp in
    if not (List.exists (member_equal member) !slot) then begin
      slot := member :: !slot;
      (match member with
      | Ind _ -> ()
      | Grp nested ->
        let pslot = parent_slot db nested in
        pslot := String_set.add grp !pslot);
      mark_dirty db grp;
      (* Membership lands above, generation bumps after (deferred to
         the batch end when inside one): a reader that observes the
         bumped generation also sees the new list (see the ordering
         contract in Meta). *)
      publish db
    end

  let remove_member db grp member =
    match Hashtbl.find_opt db.members grp with
    | None -> ()
    | Some slot ->
      (* One walk decides presence and builds the remainder — no
         length recount of both lists. *)
      let removed = ref false in
      let kept =
        List.filter
          (fun m ->
            if member_equal member m then begin
              removed := true;
              false
            end
            else true)
          !slot
      in
      if !removed then begin
        slot := kept;
        (match member with
        | Ind _ -> ()
        | Grp nested -> (
          match Hashtbl.find_opt db.parents nested with
          | Some pslot -> pslot := String_set.remove grp !pslot
          | None -> ()));
        mark_dirty db grp;
        publish db
      end

  let individuals db = String_set.elements db.individual_set
  let mem_individual db ind = String_set.mem ind db.individual_set
  let individual_count db = db.individual_count

  (* The per-group dirty stamp, for scoped-invalidation consumers
     (link-time certificates record the stamp of every group their
     proof consulted and revalidate against it).  Reading an int ref
     is a single word load; mutators are externally serialized and the
     slot itself exists from registration time, so probing from reader
     domains is safe under the same contract as the snapshot
     builder. *)
  let dirty_stamp db grp =
    match Hashtbl.find_opt db.dirty grp with
    | Some slot -> !slot
    | None -> 0

  (* Every group reachable from [grp] through member edges, [grp]
     itself included — the exact set of groups whose member-list edits
     can change [grp]'s transitive member set.  Any is_member answer
     obtained through [grp] stays fixed while the dirty stamps of this
     closure do: to alter reachability below [grp] a mutation must
     touch the member list of some group that is reachable from [grp]
     at mutation time, and while no closure member has been edited,
     reachability (hence the closure itself) is unchanged from walk
     time — so the first effective edit always lands on a recorded
     group.  Sorted for deterministic certificate dependency lists. *)
  let group_closure db grp =
    let visited = Hashtbl.create 8 in
    let rec walk grp =
      if not (Hashtbl.mem visited grp) then begin
        Hashtbl.add visited grp ();
        List.iter
          (function
            | Ind _ -> ()
            | Grp nested -> walk nested)
          (match Hashtbl.find_opt db.members grp with
          | Some slot -> !slot
          | None -> [])
      end
    in
    walk grp;
    Hashtbl.fold (fun g () acc -> g :: acc) visited []
    |> List.sort String.compare

  let groups db =
    Hashtbl.fold (fun grp _ acc -> grp :: acc) db.members []
    |> List.sort_uniq String.compare

  let direct_members db grp =
    match Hashtbl.find_opt db.members grp with
    | None -> []
    | Some slot -> !slot

  (* Transitive membership over the live member lists (the reference
     semantics the snapshot rows are held to).  The visited set bounds
     the walk by the edge count on shared-subgroup DAGs, exactly as in
     [reaches]. *)
  let is_member db ind grp =
    let visited = Hashtbl.create 8 in
    let rec walk grp =
      (not (Hashtbl.mem visited grp))
      && begin
           Hashtbl.add visited grp ();
           List.exists
             (function
               | Ind i -> equal_individual i ind
               | Grp nested -> walk nested)
             (direct_members db grp)
         end
    in
    walk grp

  (* Sorted binary probe of an individual's group row.  Top-level so
     the snapshot membership test allocates nothing; typed [int] so
     the comparisons are machine compares, not polymorphic-compare
     calls. *)
  let rec row_search (row : int array) (target : int) lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let v = Array.unsafe_get row mid in
    if v = target then true
    else if v < target then row_search row target (mid + 1) hi
    else row_search row target lo mid

  module Snapshot = struct
    type t = snapshot

    let generation snap = snap.snap_generation

    (* Allocation-free id lookup (raising a constant exception instead
       of building an option): the decision hot path runs this once
       per check. *)
    let individual_id snap ind =
      try Hashtbl.find snap.ids ind with Not_found -> -1

    let group_id snap grp =
      try Hashtbl.find snap.group_ids grp with Not_found -> -1

    let is_member snap ~individual_id ~group_id =
      individual_id >= 0 && individual_id < snap.id_count
      && group_id >= 0 && group_id < snap.group_count
      &&
      let row = Array.unsafe_get snap.rows individual_id in
      row_search row group_id 0 (Array.length row)
  end

  (* Shared by the full and delta builders: turn per-group closure
     sets (dense individual ids) into the two sorted row families. *)
  let rows_of_group_rows ~id_count group_rows =
    let counts = Array.make (Stdlib.max 1 id_count) 0 in
    Array.iter
      (fun row -> Array.iter (fun id -> counts.(id) <- counts.(id) + 1) row)
      group_rows;
    let rows = Array.init id_count (fun id -> Array.make counts.(id) 0) in
    let fill = Array.make (Stdlib.max 1 id_count) 0 in
    (* Group ids ascend across the iteration, so every row comes out
       sorted without a per-row sort. *)
    Array.iteri
      (fun gid grow ->
        Array.iter
          (fun id ->
            rows.(id).(fill.(id)) <- gid;
            fill.(id) <- fill.(id) + 1)
          grow)
      group_rows;
    rows

  let set_of_row row = Array.fold_left (fun acc id -> Int_set.add id acc) Int_set.empty row

  let row_of_set set = Array.of_list (Int_set.elements set)

  let build_snapshot db ~generation =
    let individuals = String_set.elements db.individual_set in
    (* Sized at twice the population: the name -> id probe is the one
       lookup on the compiled decision hot path, and the slack keeps
       bucket chains short. *)
    let ids = Hashtbl.create ((2 * List.length individuals) + 1) in
    List.iteri (fun i ind -> Hashtbl.replace ids ind i) individuals;
    let id_count = Hashtbl.length ids in
    let group_list = groups db in
    let group_ids = Hashtbl.create ((2 * List.length group_list) + 1) in
    List.iteri (fun i grp -> Hashtbl.replace group_ids grp i) group_list;
    let group_count = Hashtbl.length group_ids in
    let group_names = Array.of_list group_list in
    (* Transitive member closure per group, memoized.  Termination is
       guaranteed because add_member rejects membership cycles; the
       in-progress marker additionally bounds a walk that races with
       membership churn (such a snapshot is born stale and discarded
       on its next validation anyway). *)
    let closures : (group, Int_set.t) Hashtbl.t = Hashtbl.create ((2 * group_count) + 1) in
    let rec closure grp =
      match Hashtbl.find_opt closures grp with
      | Some set -> set
      | None ->
        Hashtbl.replace closures grp Int_set.empty;
        let set =
          List.fold_left
            (fun acc -> function
              | Ind ind -> (
                match Hashtbl.find_opt ids ind with
                | None -> acc  (* member added since the individual listing; next generation covers it *)
                | Some id -> Int_set.add id acc)
              | Grp nested -> Int_set.union acc (closure nested))
            Int_set.empty (direct_members db grp)
        in
        Hashtbl.replace closures grp set;
        set
    in
    let group_rows = Array.map (fun grp -> row_of_set (closure grp)) group_names in
    let rows = rows_of_group_rows ~id_count group_rows in
    { snap_generation = generation; ids; id_count; group_ids; group_count;
      group_names; rows; group_rows }

  (* Delta rebuild: only groups whose member list moved since [prev]
     was built — plus every group that transitively contains one, per
     the reverse-membership index — get their closures recomputed; the
     rows of untouched principals are shared with [prev] by reference
     (the spines are copied, pointer-per-principal).  Preconditions
     checked by the caller: no individual or group was registered
     since [prev], so the intern tables transfer by reference.
     @raise Not_found when an affected group is unknown to [prev]
     (population drifted after all); the caller falls back to a full
     build. *)
  let build_delta db ~generation ~prev =
    let roots =
      Hashtbl.fold
        (fun grp slot acc -> if !slot > prev.snap_generation then grp :: acc else acc)
        db.dirty []
    in
    let affected : (group, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec mark grp =
      if not (Hashtbl.mem affected grp) then begin
        Hashtbl.add affected grp ();
        match Hashtbl.find_opt db.parents grp with
        | None -> ()
        | Some pslot -> String_set.iter mark !pslot
      end
    in
    List.iter mark roots;
    (* When the churn touched most of the group population, recomputing
       closure-by-closure plus converting every untouched neighbour row
       back into a set costs more than the straight rebuild — hand the
       work to the full builder instead of limping through the delta
       machinery. *)
    if 4 * Hashtbl.length affected >= 3 * Stdlib.max 1 prev.group_count then
      raise Not_found;
    let memo : (group, Int_set.t) Hashtbl.t = Hashtbl.create 64 in
    let rec closure grp =
      match Hashtbl.find_opt memo grp with
      | Some set -> set
      | None ->
        Hashtbl.replace memo grp Int_set.empty;
        let set =
          if not (Hashtbl.mem affected grp) then
            (* No dirty group below it: the previous closure stands. *)
            set_of_row prev.group_rows.(Hashtbl.find prev.group_ids grp)
          else
            List.fold_left
              (fun acc -> function
                | Ind ind -> (
                  match Hashtbl.find_opt prev.ids ind with
                  | None -> acc
                  | Some id -> Int_set.add id acc)
                | Grp nested -> Int_set.union acc (closure nested))
              Int_set.empty (direct_members db grp)
        in
        Hashtbl.replace memo grp set;
        set
    in
    let rows = Array.copy prev.rows in
    let group_rows = Array.copy prev.group_rows in
    (* Per-individual row edits, materialized lazily: only principals
       whose membership actually changed get a fresh row. *)
    let edits : (int, Int_set.t ref) Hashtbl.t = Hashtbl.create 64 in
    let row_edit id =
      match Hashtbl.find_opt edits id with
      | Some slot -> slot
      | None ->
        let slot = ref (set_of_row prev.rows.(id)) in
        Hashtbl.add edits id slot;
        slot
    in
    Hashtbl.iter
      (fun grp () ->
        let gid = Hashtbl.find prev.group_ids grp in
        let next = closure grp in
        let old_row = prev.group_rows.(gid) in
        let old_set = set_of_row old_row in
        Int_set.iter
          (fun id ->
            if not (Int_set.mem id old_set) then begin
              let slot = row_edit id in
              slot := Int_set.add gid !slot
            end)
          next;
        Array.iter
          (fun id ->
            if not (Int_set.mem id next) then begin
              let slot = row_edit id in
              slot := Int_set.remove gid !slot
            end)
          old_row;
        group_rows.(gid) <- row_of_set next)
      affected;
    Hashtbl.iter (fun id slot -> rows.(id) <- row_of_set !slot) edits;
    { prev with snap_generation = generation; rows; group_rows }

  let full_snapshot db =
    build_snapshot db ~generation:(Atomic.get db.generation)

  (* Install via compare-and-set, and only when strictly newer than
     the incumbent: two racing reader domains can finish builds out of
     order, and letting the older build overwrite a fresher cached
     snapshot would force the next caller into yet another rebuild. *)
  let rec install_snapshot db snap =
    let cur = Atomic.get db.snapshot_slot in
    match cur with
    | Some incumbent when incumbent.snap_generation >= snap.snap_generation -> ()
    | Some _ | None ->
      if not (Atomic.compare_and_set db.snapshot_slot cur (Some snap)) then
        install_snapshot db snap

  let rec snapshot db =
    (* The batch epoch is read first, the generation second, both
       BEFORE the membership walk (the standard data-then-generation
       discipline, see Meta): a non-batched mutation racing with the
       build lands a higher generation than the stamp, so the stale
       snapshot fails the comparison on its next use and is rebuilt.

       Batched mutations need the epoch guard on top: they land data
       under an UNMOVED generation (the single bump is deferred to the
       outermost batch exit), so a rebuild overlapping a batch could
       stamp partially applied batch state with a generation that
       stays current until the batch ends.  Hence no rebuild result is
       published or returned unless the epoch was even — no batch in
       flight — on both sides of the walk; mid-batch readers are
       served the incumbent cached snapshot instead, which is exactly
       the previous published state the batch contract promises
       them. *)
    let epoch = Atomic.get db.batch_epoch in
    let generation = Atomic.get db.generation in
    match Atomic.get db.snapshot_slot with
    | Some snap when snap.snap_generation = generation -> snap
    | prev_slot ->
      if epoch land 1 = 1 then begin
        match prev_slot with
        | Some prev -> prev  (* stale by generation; never validates as current *)
        | None ->
          (* Nothing was ever published: build from the live lists but
             stamp the result born-stale (below the pre-batch
             generation), so no artifact minted from it can validate
             once — or while — the batch publishes.  Not installed in
             the slot: a partial-state snapshot must not seed later
             delta rebuilds. *)
          build_snapshot db ~generation:(generation - 1)
      end
      else begin
        let snap =
          match prev_slot with
          | Some prev
            when prev.id_count = db.individual_count
                 && prev.group_count = Hashtbl.length db.members -> (
            (* Same registered population: rebuild only what the churn
               since [prev] touched. *)
            try build_delta db ~generation ~prev
            with Not_found -> build_snapshot db ~generation)
          | Some _ | None -> build_snapshot db ~generation
        in
        if Atomic.get db.batch_epoch <> epoch then
          (* A batch entered (or came and went) during the walk: the
             build may hold partial batch state under a stamp the
             batch has yet to invalidate.  Discard it and re-decide —
             the retry either serves the incumbent (batch still in
             flight) or rebuilds from settled lists. *)
          snapshot db
        else begin
          install_snapshot db snap;
          snap
        end
      end

  let groups_of db ind =
    (* Routed through the snapshot: one id probe plus the individual's
       precomputed row, instead of a transitive list walk per
       registered group.  Row ids ascend and groups are interned in
       sorted order, so the result comes out sorted by name. *)
    let snap = snapshot db in
    match Hashtbl.find_opt snap.ids ind with
    | None -> []
    | Some id ->
      List.map (fun gid -> snap.group_names.(gid)) (Array.to_list snap.rows.(id))
end
