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
     dense id of its kind when it is registered, and keeps it.  Each
     kind has one name table (see [names]).  Membership is kept twice
     over those ids, each copy the other's reverse: a group's slot lists
     the ids of its direct members, and every individual and every group
     lists the ids of the groups that directly contain it.

     A snapshot is a frozen, generation-stamped view of membership over
     those ids, used by the compiled decision path (see Acl_compiled):
     one sorted group-id row per individual, every group reachable
     upward from the individual's direct groups.  It keeps no row per
     group.  It records how many individuals and groups it saw and
     reads any id at or above those counts as unregistered (a member of
     nothing).  Snapshots are immutable after construction, so readers
     in other domains may probe them without a lock.

     The writer publishes them: the database holds one atomic slot, the
     published snapshot, and its generation is the database's.  Each
     effective edit outside a batch, and the exit of an outermost batch
     that edited, builds the next snapshot from the published one and
     stores it in the slot; no reader ever builds one.  Registration
     publishes nothing: a new principal is a member of nothing, which
     every snapshot already says.

     Successive snapshots share structure.  The rows live in chunks of
     [chunk_size], the chunks in blocks of [chunk_size], the blocks in
     one top array, so a publication copies the top array and the
     block and chunk of each row it changes, and shares the rest.
     Every effective edit names the individuals whose rows it can
     change, and a publication recomputes exactly the rows named since
     the published snapshot (see [build]): cost scales with the edit,
     not the population.  The first publication computes every row,
     each group's closure once. *)

  (* A name table: the names of one kind by id, in registration order,
     and an open-addressed index over them.  An index slot is [-1] or
     [id lsl hash_bits lor hash], the name's 30-bit [String.hash], so a
     probe compares the stored hash before it reads the name, and keeps
     no copy of the name.  [index] is twice [by_id]'s length, a power of
     two: at most half full, so every probe meets an empty slot.  Both
     arrays are replaced whole when they grow; a probe loads each once
     and indexes only those, so one racing a registration can at worst
     miss a name. *)
  type names = {
    mutable by_id : string array;
    mutable index : int array;
    mutable count : int;  (* ids [0] to [count - 1] are registered *)
  }

  let hash_bits = 30
  let hash_mask = (1 lsl hash_bits) - 1
  let hash name = String.hash name land hash_mask

  let empty_names () = { by_id = Array.make 16 ""; index = Array.make 32 (-1); count = 0 }

  (* The id [name] hashing to [h] has in the loaded arrays, probing
     from slot [j], or [-1].  A hit needs [by_id] to hold [name] at the
     id, so a stale load misses rather than answers a wrong id.
     Top-level, so a probe allocates no closure. *)
  let rec probe index (by_id : string array) name h j =
    let e = Array.unsafe_get index j in
    if e < 0 then -1
    else
      let id = e lsr hash_bits in
      if
        e land hash_mask = h
        && id < Array.length by_id
        && String.equal (Array.unsafe_get by_id id) name
      then id
      else probe index by_id name h ((j + 1) land (Array.length index - 1))

  let search t name h =
    let index = t.index in
    probe index t.by_id name h (h land (Array.length index - 1))

  let find t name = search t name (hash name)

  let rec free_slot index mask j =
    if index.(j) < 0 then j else free_slot index mask ((j + 1) land mask)

  let insert index entry h =
    let mask = Array.length index - 1 in
    index.(free_slot index mask (h land mask)) <- entry

  (* Register [name], hashing to [h] and absent, under the next id.
     The name lands before its index entry, and a grown table is
     filled before it is stored. *)
  let add t name h =
    let id = t.count in
    if id = Array.length t.by_id then begin
      let by_id = Array.make (2 * id) "" in
      Array.blit t.by_id 0 by_id 0 id;
      let index = Array.make (4 * id) (-1) in
      Array.iter (fun e -> if e >= 0 then insert index e (e land hash_mask)) t.index;
      t.by_id <- by_id;
      t.index <- index
    end;
    t.by_id.(id) <- name;
    insert t.index ((id lsl hash_bits) lor h) h;
    t.count <- id + 1;
    id

  let sorted_names t = Array.to_list (Array.sub t.by_id 0 t.count) |> List.sort String.compare

  (* A registered group; its id is its index in [groups].  Each list
     is immutable, swapped whole. *)
  type slot = {
    mutable inds : int list;  (* ids of the direct individual members *)
    mutable subgroups : int list;  (* ids of the direct member groups *)
    mutable parents : int list;  (* ids of the groups that directly contain this one *)
  }

  type snapshot = {
    snap_generation : int;
    ind_ids : names;  (* the database's, shared *)
    group_ids : names;  (* likewise *)
    id_count : int;  (* individuals registered when built *)
    group_count : int;  (* groups registered when built *)
    top : int array array array array;
        (* per individual id [i], at [top.(i lsr block_bits).((i lsr
           chunk_bits) land chunk_mask).(i land chunk_mask)]: the sorted
           ids of every group the individual transitively belongs to *)
  }

  let chunk_bits = 8
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1
  let block_bits = 2 * chunk_bits

  type t = {
    ind_ids : names;  (* individual names, by id *)
    group_ids : names;  (* group names, by id *)
    mutable direct : int list array;
        (* by individual id: the ids of the groups it directly belongs
           to; grown by doubling *)
    mutable groups : slot array;  (* by id; grown by doubling *)
    published : snapshot Atomic.t;
    mutable pending : int list;
        (* the ids the edits since [published] name, in a plain field:
           writers are serialized.  Collected only while [published]
           has rows, since a build from a rowless base recomputes every
           row *)
    mutable batch_depth : int;
    mutable batch_edited : bool;
  }

  (* Fills the unused tail of [groups]; never registered, never
     written. *)
  let vacant = { inds = []; subgroups = []; parents = [] }

  (* A snapshot with no rows: every id reads as a member of nothing. *)
  let rowless ind_ids group_ids generation =
    { snap_generation = generation; ind_ids; group_ids; id_count = 0; group_count = 0; top = [||] }

  let create () =
    let ind_ids = empty_names () and group_ids = empty_names () in
    {
      ind_ids;
      group_ids;
      direct = Array.make 16 [];
      groups = Array.make 16 vacant;
      published = Atomic.make (rowless ind_ids group_ids 0);
      pending = [];
      batch_depth = 0;
      batch_edited = false;
    }

  let snapshot db = Atomic.get db.published
  let generation db = (Atomic.get db.published).snap_generation

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
    let h = hash ind in
    let id = search db.ind_ids ind h in
    if id >= 0 then id
    else begin
      db.direct <- room db.direct db.ind_ids.count [];
      add db.ind_ids ind h
    end

  let add_individual db ind = ignore (register_individual db ind)

  (* The group's id, registering it first if need be.  The slot lands
     before the name, so a reader that finds the id finds the slot. *)
  let register_group db grp =
    let h = hash grp in
    let id = search db.group_ids grp h in
    if id >= 0 then id
    else begin
      let id = db.group_ids.count in
      db.groups <- room db.groups id vacant;
      db.groups.(id) <- { inds = []; subgroups = []; parents = [] };
      add db.group_ids grp h
    end

  let add_group db grp = ignore (register_group db grp)

  let rec has (id : int) = function
    | [] -> false
    | x :: rest -> x = id || has id rest

  let drop (id : int) ids = List.filter (fun x -> x <> id) ids

  (* The chunk and the block a build starts a new one from.  Never
     written: a build copies every chunk and block it changes. *)
  let empty_chunk : int array array = Array.make chunk_size [||]
  let empty_block : int array array array = Array.make chunk_size empty_chunk

  (* An individual's row: the sorted ids of the groups reachable upward
     from its [direct] groups through the slots' parent ids, each once,
     leaving out ids at or above [group_count].  The walk tests a group
     against the ones it has found: quadratic in the row's length, how
     many groups one individual belongs to.  At S3's rows of about six,
     a visited table made the full build two to three times slower.
     An individual in no group gets [[||]], the one empty-array atom,
     without a walk. *)
  let upward slots ~group_count = function
    | [] -> [||]
    | direct ->
      let rec climb acc g =
        if g >= group_count || has g acc then acc
        else List.fold_left climb (g :: acc) slots.(g).parents
      in
      let row = Array.of_list (List.fold_left climb [] direct) in
      Array.sort Int.compare row;
      row

  (* Whether rows [a] and [b], of one length, agree from [k] on.
     Top-level, so a comparison allocates no closure. *)
  let rec agree_from (a : int array) (b : int array) k =
    k = Array.length a || (Array.unsafe_get a k = Array.unsafe_get b k && agree_from a b (k + 1))

  let rows_equal (a : int array) (b : int array) =
    a == b || (Array.length a = Array.length b && agree_from a b 0)

  (* The sorted union of two sorted rows: one of them itself when it
     holds the other, else a fresh array. *)
  let union (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    let rec count i j n =
      if i = la then n + lb - j
      else if j = lb then n + la - i
      else
        let x = a.(i) and y = b.(j) in
        if x < y then count (i + 1) j (n + 1)
        else if y < x then count i (j + 1) (n + 1)
        else count (i + 1) (j + 1) (n + 1)
    in
    let n = count 0 0 0 in
    if n = la then a
    else if n = lb then b
    else begin
      let row = Array.make n 0 in
      let rec fill i j k =
        if i = la then Array.blit b j row k (lb - j)
        else if j = lb then Array.blit a i row k (la - i)
        else
          let x = a.(i) and y = b.(j) in
          if x <= y then begin
            row.(k) <- x;
            fill (i + 1) (if x = y then j + 1 else j) (k + 1)
          end
          else begin
            row.(k) <- y;
            fill i (j + 1) (k + 1)
          end
      in
      fill 0 0 0;
      row
    end

  (* The full build's rows.  A group's closure, itself and every group
     above it, is computed once, when an individual first names the
     group as a direct group, and that very array is the row of every
     individual whose only direct group it is; any other row is the
     union of its direct groups' closures.  The memo is one slot per
     group, so only a full build keeps one. *)
  let full_rows slots ~group_count =
    let closures = Array.make group_count [||] in
    let closure g =
      let known = closures.(g) in
      if Array.length known > 0 then known
      else begin
        let row = upward slots ~group_count [ g ] in
        closures.(g) <- row;
        row
      end
    in
    List.fold_left (fun row g -> if g < group_count then union row (closure g) else row) [||]

  (* The snapshot after [prev], in proportion to the change: each id in
     [named] is recomputed, and replaces the old row only when its
     content differs, in a copy of its chunk and of its chunk's block
     (one copy of each per build: the ids are visited in ascending
     order).  Every other row, chunk and block is shared with [prev].
     A [prev] with no rows is patched nowhere: the build computes every
     row with [full_rows] and [named] is not read. *)
  let build db ~generation ~prev named =
    let id_count = db.ind_ids.count and group_count = db.group_ids.count in
    let slots = db.groups and direct = db.direct in
    let top = Array.make ((id_count + (1 lsl block_bits) - 1) lsr block_bits) empty_block in
    Array.blit prev.top 0 top 0 (Array.length prev.top);
    let copied_block = ref (-1) and copied_chunk = ref (-1) in
    let store i row =
      let b = i lsr block_bits and c = (i lsr chunk_bits) land chunk_mask in
      if not (rows_equal row top.(b).(c).(i land chunk_mask)) then begin
        (* Copy-on-write: nothing [prev] holds is written. *)
        if !copied_block <> b then begin
          top.(b) <- Array.copy top.(b);
          copied_block := b
        end;
        if !copied_chunk <> i lsr chunk_bits then begin
          top.(b).(c) <- Array.copy top.(b).(c);
          copied_chunk := i lsr chunk_bits
        end;
        top.(b).(c).(i land chunk_mask) <- row
      end
    in
    if prev.id_count = 0 then begin
      let row = full_rows slots ~group_count in
      for i = 0 to id_count - 1 do
        store i (row direct.(i))
      done
    end
    else begin
      let ids = Array.of_list named in
      Array.sort Int.compare ids;
      Array.iteri
        (fun k i ->
          if k = 0 || ids.(k - 1) <> i then store i (upward slots ~group_count direct.(i)))
        ids
    end;
    { snap_generation = generation; ind_ids = db.ind_ids; group_ids = db.group_ids; id_count;
      group_count; top }

  let full_snapshot db =
    build db ~generation:(generation db) ~prev:(rowless db.ind_ids db.group_ids (-1)) []

  (* Build the next snapshot from the published one over the ids named
     since it, and publish it under the next generation.  The member
     lists are already written and the build reads them all before the
     store, so a reader that loads the new snapshot sees every row it
     holds. *)
  let publish db =
    let prev = Atomic.get db.published in
    let named = db.pending in
    db.pending <- [];
    Atomic.set db.published (build db ~generation:(prev.snap_generation + 1) ~prev named)

  let batch db f =
    db.batch_depth <- db.batch_depth + 1;
    Fun.protect f ~finally:(fun () ->
        db.batch_depth <- db.batch_depth - 1;
        if db.batch_depth = 0 && db.batch_edited then begin
          db.batch_edited <- false;
          publish db
        end)

  (* One effective edit of the member lists: [write] moves them and
     returns the ids of the individuals whose rows the move can
     change.  Outside a batch the edit publishes at once; inside one,
     the outermost batch's exit does. *)
  let edit db write =
    let named = write () in
    if (Atomic.get db.published).id_count > 0 then
      db.pending <- List.rev_append named db.pending;
    if db.batch_depth > 0 then db.batch_edited <- true else publish db

  let in_batch db = db.batch_depth > 0

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
     or out of [c] can change.  Duplicates are left to the build. *)
  let below db c =
    List.fold_left (fun acc g -> List.rev_append db.groups.(g).inds acc) [] (descendants db c)

  (* Does [target] appear, transitively, among the member groups of
     [grp]?  Used to reject membership cycles.  Read-only: an unknown
     group has no members, so probing it must not register it — the
     validation of [add_member] runs before any mutation. *)
  let reaches db grp target =
    equal_group grp target
    ||
    let g = find db.group_ids grp and t = find db.group_ids target in
    g >= 0 && t >= 0 && has t (descendants db g)

  (* Validate first, mutate only on success: a rejected insertion must
     leave the database — registered groups, member lists and the
     generation — exactly as it found it.  Presence is read from the
     member's own direct-group ids, not the group's member list. *)
  let add_member db grp member =
    match member with
    | Ind ind ->
      let i = register_individual db ind in
      let g = register_group db grp in
      if not (has g db.direct.(i)) then
        edit db (fun () ->
            let slot = db.groups.(g) in
            slot.inds <- i :: slot.inds;
            db.direct.(i) <- g :: db.direct.(i);
            [ i ])
    | Grp nested ->
      if reaches db nested grp then
        invalid_arg
          (Printf.sprintf "Principal.Db.add_member: %s <- %s would create a cycle" grp nested);
      let c = register_group db nested in
      let g = register_group db grp in
      let child = db.groups.(c) in
      if not (has g child.parents) then
        edit db (fun () ->
            let slot = db.groups.(g) in
            slot.subgroups <- c :: slot.subgroups;
            child.parents <- g :: child.parents;
            below db c)

  let remove_member db grp member =
    let g = find db.group_ids grp in
    if g >= 0 then begin
      let slot = db.groups.(g) in
      match member with
      | Ind ind ->
        let i = find db.ind_ids ind in
        if i >= 0 && has g db.direct.(i) then
          edit db (fun () ->
              slot.inds <- drop i slot.inds;
              db.direct.(i) <- drop g db.direct.(i);
              [ i ])
      | Grp nested ->
        let c = find db.group_ids nested in
        if c >= 0 && has g db.groups.(c).parents then
          edit db (fun () ->
              let child = db.groups.(c) in
              slot.subgroups <- drop c slot.subgroups;
              child.parents <- drop g child.parents;
              below db c)
    end

  let individuals db = sorted_names db.ind_ids
  let mem_individual db ind = find db.ind_ids ind >= 0
  let individual_count db = db.ind_ids.count
  let groups db = sorted_names db.group_ids
  let mem_group db grp = find db.group_ids grp >= 0

  let group_names db ids =
    List.map (fun g -> db.group_ids.by_id.(g)) ids |> List.sort String.compare

  let direct_members db grp =
    let g = find db.group_ids grp in
    if g < 0 then []
    else
      let slot = db.groups.(g) in
      List.map (fun c -> Grp db.group_ids.by_id.(c)) slot.subgroups
      @ List.map (fun i -> Ind db.ind_ids.by_id.(i)) slot.inds

  let direct_groups db member =
    group_names db
      (match member with
      | Ind ind ->
        let i = find db.ind_ids ind in
        if i < 0 then [] else db.direct.(i)
      | Grp grp ->
        let g = find db.group_ids grp in
        if g < 0 then [] else db.groups.(g).parents)

  (* Transitive membership over the live member lists, downward from
     the group: the reference semantics the snapshot rows, computed
     upward through the other index, are held to. *)
  let is_member db ind grp =
    let i = find db.ind_ids ind and g = find db.group_ids grp in
    i >= 0 && g >= 0 && List.exists (fun g -> has i db.groups.(g).inds) (descendants db g)

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
    let registered_individuals (snap : t) = snap.ind_ids.count

    (* Allocation-free id lookup: a miss answers [-1].  Ids never
       change, so the answer is the same in every snapshot of the
       database. *)
    let individual_id (snap : t) ind = find snap.ind_ids ind
    let group_id (snap : t) grp = find snap.group_ids grp

    (* [[||]] is the one empty-array atom, so an id the snapshot reads
       as unregistered allocates nothing. *)
    let row snap ~individual_id =
      if individual_id < 0 || individual_id >= snap.id_count then [||]
      else
        Array.unsafe_get
          (Array.unsafe_get
             (Array.unsafe_get snap.top (individual_id lsr block_bits))
             ((individual_id lsr chunk_bits) land chunk_mask))
          (individual_id land chunk_mask)

    (* Rows hold only the ids of groups registered when the snapshot
       was built, so any other [group_id] (including [-1]) is found in
       none. *)
    let is_member snap ~individual_id ~group_id =
      let row = row snap ~individual_id in
      row_search row group_id 0 (Array.length row)
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
