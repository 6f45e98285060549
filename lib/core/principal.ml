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

module Db = struct
  (* Registration is append-only: an individual or group gets the next
     dense id of its kind when it is registered, and keeps it.
     Membership is kept twice over those ids, each copy the other's
     reverse: a group's slot lists the ids of its direct members, and
     every individual and every group lists the ids of the groups that
     directly contain it.

     A snapshot is a frozen, generation-stamped view of membership over
     those ids, used by the compiled decision path (see Acl_compiled):
     one sorted group-id row per individual, every group reachable
     upward from the individual's direct groups.  It keeps no row per
     group.  It records how many individuals and groups it saw and
     reads any id at or above those counts as unregistered (a member of
     nothing).  Snapshots are immutable after construction, so readers
     in other domains may probe them without a lock; staleness is
     detected by comparing [snap_generation] with the live generation
     counter.

     Successive snapshots share structure.  The rows live in fixed
     chunks of [chunk_size], so a refresh copies the chunk spine and
     only the chunks holding a changed row.  Every effective edit
     appends a cell to an edit log naming the individuals whose rows it
     can change, and a snapshot keeps the last cell its build read, so
     a refresh recomputes exactly the rows named since its base (see
     [build]): cost scales with the edit, not the population.  The
     first snapshot is the same refresh from the empty one, which
     recomputes every row. *)

  (* A registered group; its id is its index in [groups].  Each list
     is immutable, swapped whole. *)
  type slot = {
    name : group;
    mutable inds : int list;  (* ids of the direct individual members *)
    mutable subgroups : int list;  (* ids of the direct member groups *)
    mutable parents : int list;  (* ids of the groups that directly contain this one *)
  }

  (* The edit log, oldest first: one cell per effective edit, naming
     the individuals whose rows it can change.  The database keeps only
     the newest cell and a snapshot the last one its build read, so the
     cells before the oldest held snapshot's are garbage. *)
  type log = { named : int list; next : log option Atomic.t }

  type snapshot = {
    snap_generation : int;
    ind_ids : (string, int) Hashtbl.t;  (* the database's, shared *)
    group_ids : (string, int) Hashtbl.t;  (* likewise *)
    id_count : int;  (* individuals registered when built *)
    group_count : int;  (* groups registered when built *)
    chunks : int array array array;
        (* per individual id [i], at [chunks.(i / chunk_size).(i mod
           chunk_size)]: the sorted ids of every group the individual
           transitively belongs to *)
    seen : log option;  (* the last log cell the build read; none in the empty snapshot *)
  }

  let chunk_bits = 8
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1

  type t = {
    ind_ids : (string, int) Hashtbl.t;  (* individual name -> id *)
    group_ids : (string, int) Hashtbl.t;  (* group name -> id *)
    mutable names : individual array;  (* by individual id; grown by doubling *)
    mutable direct : int list array;
        (* by individual id: the ids of the groups it directly belongs
           to; grown by doubling *)
    mutable groups : slot array;  (* by id; grown by doubling *)
    last : log Atomic.t;  (* the newest log cell *)
    generation : int Atomic.t;
    snapshot_slot : snapshot option Atomic.t;
    batch_epoch : int Atomic.t;
        (* seqlock-style batch marker: odd while the outermost batch is
           in flight (incremented at entry and again at exit, after the
           final generation bump).  [snapshot] reads it around every
           rebuild: a rebuild that overlaps a batch may have read
           partially applied member lists under an unmoved generation,
           so it must not be published or served as current. *)
    mutable batch_depth : int;
    mutable batch_pending : bool;
  }

  (* Fills the unused tail of [groups]; never registered, never
     written. *)
  let vacant = { name = ""; inds = []; subgroups = []; parents = [] }

  let create () =
    {
      ind_ids = Hashtbl.create 16;
      group_ids = Hashtbl.create 16;
      names = Array.make 16 "";
      direct = Array.make 16 [];
      groups = Array.make 16 vacant;
      last = Atomic.make { named = []; next = Atomic.make None };
      generation = Atomic.make 0;
      snapshot_slot = Atomic.make None;
      batch_epoch = Atomic.make 0;
      batch_depth = 0;
      batch_pending = false;
    }

  let generation db = Atomic.get db.generation

  (* [arr] with room for index [n], the next id: itself, or a copy of
     twice the size filled with [fill]. *)
  let room arr n fill =
    if n < Array.length arr then arr
    else begin
      let grown = Array.make (2 * n) fill in
      Array.blit arr 0 grown 0 n;
      grown
    end

  (* The individual's id, registering it first if need be.  The
     indexes grow before the name lands, so a reader that finds the id
     finds its entries. *)
  let register_individual db ind =
    match Hashtbl.find_opt db.ind_ids ind with
    | Some id -> id
    | None ->
      let id = Hashtbl.length db.ind_ids in
      db.names <- room db.names id "";
      db.direct <- room db.direct id [];
      db.names.(id) <- ind;
      Hashtbl.add db.ind_ids ind id;
      id

  let add_individual db ind = ignore (register_individual db ind)

  (* The group's id, registering it first if need be.  The slot lands
     before the name, so a reader that finds the id finds the slot. *)
  let register_group db grp =
    match Hashtbl.find_opt db.group_ids grp with
    | Some id -> id
    | None ->
      let id = Hashtbl.length db.group_ids in
      db.groups <- room db.groups id vacant;
      db.groups.(id) <- { name = grp; inds = []; subgroups = []; parents = [] };
      Hashtbl.add db.group_ids grp id;
      id

  let add_group db grp = ignore (register_group db grp)

  let rec has (id : int) = function
    | [] -> false
    | x :: rest -> x = id || has id rest

  let drop (id : int) ids = List.filter (fun x -> x <> id) ids

  (* Publish one mutation: inside a batch the generation bump is
     deferred (and coalesced) to the end of the outermost batch;
     outside, it lands immediately.  Either way the member-list write
     precedes the bump — the data-then-generation contract readers
     rely on is unchanged, the batch merely widens the window between
     data landing and publication. *)
  let publish db =
    if db.batch_depth > 0 then db.batch_pending <- true
    else Atomic.incr db.generation

  (* Publish one effective edit of a member list, naming the
     individuals whose rows it can change.  The lists are already
     written; the log cell lands after them and BEFORE the generation
     bump, so a reader that reads the cell sees the edit. *)
  let edited db named =
    let cell = { named; next = Atomic.make None } in
    Atomic.set (Atomic.get db.last).next (Some cell);
    Atomic.set db.last cell;
    publish db

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
            (* Every member-list write and log cell of the batch is
               already in place: the single bump publishes them all. *)
            Atomic.incr db.generation
          end;
          Atomic.incr db.batch_epoch
        end)

  let in_batch db = db.batch_depth > 0
  let batch_epoch db = Atomic.get db.batch_epoch

  (* Group [g] and every group below it, each once.  The visited set
     keeps the walk linear in the edges even when nested groups are
     shared along many paths (a deep DAG would otherwise be re-walked
     exponentially often). *)
  let descendants db g =
    let visited = Hashtbl.create 8 in
    let rec walk acc g =
      if Hashtbl.mem visited g then acc
      else begin
        Hashtbl.add visited g ();
        List.fold_left walk (g :: acc) db.groups.(g).subgroups
      end
    in
    walk [] g

  (* The ids of every individual below group [c]: the rows an edge into
     or out of [c] can change.  Duplicates are left to the refresh. *)
  let below db c =
    List.fold_left (fun acc g -> List.rev_append db.groups.(g).inds acc) [] (descendants db c)

  (* Does [target] appear, transitively, among the member groups of
     [grp]?  Used to reject membership cycles.  Read-only: an unknown
     group has no members, so probing it must not register it — the
     validation of [add_member] runs before any mutation. *)
  let reaches db grp target =
    equal_group grp target
    ||
    match Hashtbl.find_opt db.group_ids grp, Hashtbl.find_opt db.group_ids target with
    | Some g, Some t -> has t (descendants db g)
    | _ -> false

  (* Validate first, mutate only on success: a rejected insertion must
     leave the database — registered groups, member lists and the
     generation — exactly as it found it.  Presence is read from the
     member's own direct-group ids, not the group's member list. *)
  let add_member db grp member =
    match member with
    | Ind ind ->
      let i = register_individual db ind in
      let g = register_group db grp in
      if not (has g db.direct.(i)) then begin
        let slot = db.groups.(g) in
        slot.inds <- i :: slot.inds;
        db.direct.(i) <- g :: db.direct.(i);
        edited db [ i ]
      end
    | Grp nested ->
      if reaches db nested grp then
        invalid_arg
          (Printf.sprintf "Principal.Db.add_member: %s <- %s would create a cycle" grp nested);
      let c = register_group db nested in
      let g = register_group db grp in
      let child = db.groups.(c) in
      if not (has g child.parents) then begin
        let slot = db.groups.(g) in
        slot.subgroups <- c :: slot.subgroups;
        child.parents <- g :: child.parents;
        edited db (below db c)
      end

  let remove_member db grp member =
    match Hashtbl.find_opt db.group_ids grp with
    | None -> ()
    | Some g -> (
      let slot = db.groups.(g) in
      match member with
      | Ind ind -> (
        match Hashtbl.find_opt db.ind_ids ind with
        | Some i when has g db.direct.(i) ->
          slot.inds <- drop i slot.inds;
          db.direct.(i) <- drop g db.direct.(i);
          edited db [ i ]
        | Some _ | None -> ())
      | Grp nested -> (
        match Hashtbl.find_opt db.group_ids nested with
        | Some c when has g db.groups.(c).parents ->
          let child = db.groups.(c) in
          slot.subgroups <- drop c slot.subgroups;
          child.parents <- drop g child.parents;
          edited db (below db c)
        | Some _ | None -> ()))

  let sorted_names table =
    Hashtbl.fold (fun name _ acc -> name :: acc) table [] |> List.sort String.compare

  let individuals db = sorted_names db.ind_ids
  let mem_individual db ind = Hashtbl.mem db.ind_ids ind
  let individual_count db = Hashtbl.length db.ind_ids
  let groups db = sorted_names db.group_ids

  let group_names db ids = List.map (fun g -> db.groups.(g).name) ids |> List.sort String.compare

  let direct_members db grp =
    match Hashtbl.find_opt db.group_ids grp with
    | None -> []
    | Some g ->
      let slot = db.groups.(g) in
      List.map (fun c -> Grp db.groups.(c).name) slot.subgroups
      @ List.map (fun i -> Ind db.names.(i)) slot.inds

  let direct_groups db member =
    group_names db
      (match member with
      | Ind ind -> (
        match Hashtbl.find_opt db.ind_ids ind with
        | Some i -> db.direct.(i)
        | None -> [])
      | Grp grp -> (
        match Hashtbl.find_opt db.group_ids grp with
        | Some g -> db.groups.(g).parents
        | None -> []))

  (* Transitive membership over the live member lists, downward from
     the group: the reference semantics the snapshot rows, computed
     upward through the other index, are held to. *)
  let is_member db ind grp =
    match Hashtbl.find_opt db.ind_ids ind, Hashtbl.find_opt db.group_ids grp with
    | Some i, Some g -> List.exists (fun g -> has i db.groups.(g).inds) (descendants db g)
    | _ -> false

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
    type row = int array

    let generation snap = snap.snap_generation
    let individual_count snap = snap.id_count
    let group_count snap = snap.group_count

    (* Allocation-free id lookup (raising a constant exception instead
       of building an option).  Ids never change, so the answer is the
       same in every snapshot of the database. *)
    let individual_id (snap : t) ind =
      try Hashtbl.find snap.ind_ids ind with Not_found -> -1

    let group_id (snap : t) grp =
      try Hashtbl.find snap.group_ids grp with Not_found -> -1

    (* [[||]] is the one empty-array atom, so an id the snapshot reads
       as unregistered allocates nothing. *)
    let row snap ~individual_id =
      if individual_id < 0 || individual_id >= snap.id_count then [||]
      else
        Array.unsafe_get
          (Array.unsafe_get snap.chunks (individual_id lsr chunk_bits))
          (individual_id land chunk_mask)

    (* A static array no build ever stores. *)
    let no_row = [| -1 |]

    (* Rows hold only the ids of groups registered when the snapshot
       was built, so any other [group_id] (including [-1]) is found in
       none. *)
    let is_member snap ~individual_id ~group_id =
      let row = row snap ~individual_id in
      row_search row group_id 0 (Array.length row)
  end

  (* The chunk a refresh starts a new chunk from.  Never written: a
     refresh copies every chunk it changes. *)
  let empty_chunk : int array array = Array.make chunk_size [||]

  let empty db =
    { snap_generation = -1; ind_ids = db.ind_ids; group_ids = db.group_ids; id_count = 0;
      group_count = 0; chunks = [||]; seen = None }

  (* An individual's row: the sorted ids of the groups reachable upward
     from its [direct] groups through the slots' parent ids, each once,
     leaving out ids at or above [group_count].  The walk tests a group
     against the ones it has found: quadratic in the row's length, how
     many groups one individual belongs to.  At S3's rows of about six,
     a visited table made the full build two to three times slower. *)
  let upward slots ~group_count direct =
    let rec climb acc g =
      if g >= group_count || has g acc then acc
      else List.fold_left climb (g :: acc) slots.(g).parents
    in
    let row = Array.of_list (List.fold_left climb [] direct) in
    Array.sort Int.compare row;
    row

  (* Rebuild from [prev], in proportion to the change.  The log cells
     after the one [prev] keeps name every individual whose row can
     have moved since; each named row is recomputed, and replaces the
     old one only when its content differs, in a copy of its chunk (one
     copy per chunk: the ids are visited in ascending order).  Every
     other row and chunk is shared with [prev].  The empty snapshot
     keeps no cell, so the refresh from it recomputes every row, and
     takes as its own cell the newest one before it reads anything.
     The counts are read after the log, so every id a read cell names
     is counted. *)
  let build db ~generation ~prev =
    let last, named =
      match prev.seen with
      | None -> Atomic.get db.last, None
      | Some cell ->
        let rec walk cell acc =
          match Atomic.get cell.next with
          | None -> cell, Some acc
          | Some next -> walk next (List.rev_append next.named acc)
        in
        walk cell []
    in
    let id_count = Hashtbl.length db.ind_ids in
    let group_count = Hashtbl.length db.group_ids in
    let slots = db.groups and direct = db.direct in
    let chunks = Array.make ((id_count + chunk_mask) lsr chunk_bits) empty_chunk in
    Array.blit prev.chunks 0 chunks 0 (Array.length prev.chunks);
    let copied = ref (-1) in
    let refresh i =
      let c = i lsr chunk_bits and j = i land chunk_mask in
      let row = upward slots ~group_count direct.(i) in
      if row <> chunks.(c).(j) then begin
        (* Copy-on-write: the chunk [prev] holds is never written. *)
        if !copied <> c then begin
          chunks.(c) <- Array.copy chunks.(c);
          copied := c
        end;
        chunks.(c).(j) <- row
      end
    in
    (match named with
    | None ->
      for i = 0 to id_count - 1 do
        refresh i
      done
    | Some ids ->
      let ids = Array.of_list ids in
      Array.sort Int.compare ids;
      Array.iteri (fun k i -> if k = 0 || ids.(k - 1) <> i then refresh i) ids);
    { snap_generation = generation; ind_ids = db.ind_ids; group_ids = db.group_ids; id_count;
      group_count; chunks; seen = Some last }

  let full_snapshot db = build db ~generation:(Atomic.get db.generation) ~prev:(empty db)

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

  (* The hit path is one slot load and one generation load.  A
     published snapshot whose generation is still the live one is
     current even while a batch is in flight: the batch's single bump
     is still to come, so the slot holds the state published before
     the batch, which is what the batch promises mid-batch readers.
     The batch epoch matters only to a rebuild. *)
  let rec snapshot db =
    match Atomic.get db.snapshot_slot with
    | Some snap when snap.snap_generation = Atomic.get db.generation -> snap
    | Some _ | None -> rebuild db

  and rebuild db =
    (* The batch epoch is read first, the generation second, both
       BEFORE the build reads the log and the lists (the standard
       data-then-generation discipline, see Meta): a non-batched
       mutation racing with the build lands a higher generation than
       the stamp, so the stale snapshot fails the comparison on its
       next use and is rebuilt.

       Batched mutations need the epoch guard on top: they land data
       under an UNMOVED generation (the single bump is deferred to the
       outermost batch exit), so a rebuild overlapping a batch could
       stamp partially applied batch state with a generation that
       stays current until the batch ends.  Hence no rebuild result is
       published or returned unless the epoch was even — no batch in
       flight — on both sides of the build; mid-batch readers are
       served the incumbent cached snapshot instead, which is exactly
       the previous published state the batch contract promises
       them.

       A published snapshot is also the base the next refresh patches
       rather than recomputes, so one stale row in it could outlive the
       refresh that follows.  The race rule that prevents it: a base
       can hold a stale row only for an individual that a log cell
       after the base's own names, and the next refresh from that base
       recomputes exactly those.  An edit writes its lists first and
       appends its cell after, through atomics, so every edit whose
       cell the build read is visible to every row the build computes.
       An edit whose cell it did not read may be partly visible, but
       if it can change an individual's row its cell names that
       individual, so the next refresh recomputes the row.  An edit
       that does not name an individual writes nothing that
       individual's upward walk reads (neither its direct groups nor
       the parents of a group above it), so every other row is exact.
       No build can hold a row this rule does not cover, so none is
       discarded for what it read. *)
    let epoch = Atomic.get db.batch_epoch in
    let generation = Atomic.get db.generation in
    match Atomic.get db.snapshot_slot with
    | Some snap when snap.snap_generation = generation -> snap
    | Some prev when epoch land 1 = 1 -> prev  (* stale by generation; never validates as current *)
    | None when epoch land 1 = 1 ->
      (* Nothing was ever published: build from the live lists but
         stamp the result born-stale (below the pre-batch generation),
         so no artifact minted from it can validate once — or while —
         the batch publishes.  Not installed in the slot: a
         partial-state snapshot must not seed later refreshes. *)
      build db ~generation:(generation - 1) ~prev:(empty db)
    | prev ->
      let snap = build db ~generation ~prev:(Option.value prev ~default:(empty db)) in
      if Atomic.get db.batch_epoch <> epoch then
        (* A batch entered (or came and went) during the build: it may
           hold partial batch state under a stamp the batch has yet to
           invalidate.  Discard it and re-decide — the retry either
           serves the incumbent (batch still in flight) or rebuilds
           from settled lists. *)
        snapshot db
      else begin
        install_snapshot db snap;
        snap
      end

  let groups_of db ind =
    (* Routed through the snapshot: one id probe plus the individual's
       precomputed row, instead of a transitive list walk per
       registered group.  Group ids follow registration order, so the
       names are sorted here. *)
    let snap = snapshot db in
    Snapshot.row snap ~individual_id:(Snapshot.individual_id snap ind)
    |> Array.to_list
    |> group_names db
end
