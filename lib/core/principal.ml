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
     dense id of its kind when it is registered, and keeps it.  A
     snapshot is a frozen, generation-stamped view of membership over
     those ids, used by the compiled decision path (see Acl_compiled):
     transitive membership flattened into one sorted group-id row per
     individual, plus two sorted individual-id rows per group, its
     direct members and its transitive closure.  It records how many
     individuals and groups it saw and reads any id at or above those
     counts as unregistered (a member of nothing).  Snapshots are
     immutable after construction, so readers in other domains may
     probe them without a lock; staleness is detected by comparing
     [snap_generation] with the live generation counter.

     Successive snapshots share structure.  The per-individual rows
     live in fixed chunks of [chunk_size], so a refresh copies the
     chunk spine and only the chunks holding a changed row.  A refresh
     recomputes the groups whose member list moved since the previous
     build, and the groups registered since, and re-tests, in each of
     their ancestors, only the individuals whose membership changed
     below it (see [build]): cost scales with the edit, not the
     population.  The first snapshot is the same refresh from the
     empty one. *)

  (* A registered group; its id is its index in [groups]. *)
  type slot = {
    name : group;
    mutable members : member list;  (* an immutable list, swapped whole *)
    mutable parents : int list;
        (* ids of the groups that directly contain this one; drives
           the dirty-closure walk of [build] *)
    mutable dirty : int;
        (* the generation at which the member list last changed; a
           snapshot built at generation g covers every mark <= g, so a
           refresh from it need only revisit groups marked above g *)
  }

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
    group_rows : int array array;
        (* per group id: the sorted ids of every individual in the
           group's transitive closure *)
    direct_rows : int array array;
        (* per group id: the sorted ids of the group's direct
           individual members *)
  }

  let chunk_bits = 8
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1

  type t = {
    ind_ids : (string, int) Hashtbl.t;  (* individual name -> id *)
    group_ids : (string, int) Hashtbl.t;  (* group name -> id *)
    mutable groups : slot array;  (* by id; grown by doubling *)
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

  (* Fills the unused tail of [groups]; never registered, never
     written. *)
  let vacant = { name = ""; members = []; parents = []; dirty = 0 }

  let create () =
    {
      ind_ids = Hashtbl.create 16;
      group_ids = Hashtbl.create 16;
      groups = Array.make 16 vacant;
      generation = Atomic.make 0;
      snapshot_slot = Atomic.make None;
      batch_epoch = Atomic.make 0;
      batch_depth = 0;
      batch_pending = false;
    }

  let generation db = Atomic.get db.generation

  let add_individual db ind =
    if not (Hashtbl.mem db.ind_ids ind) then
      Hashtbl.add db.ind_ids ind (Hashtbl.length db.ind_ids)

  (* The group's id, registering it first if need be.  The slot lands
     before the name, so a reader that finds the id finds the slot. *)
  let register_group db grp =
    match Hashtbl.find_opt db.group_ids grp with
    | Some id -> id
    | None ->
      let id = Hashtbl.length db.group_ids in
      if id = Array.length db.groups then begin
        let grown = Array.make (2 * id) vacant in
        Array.blit db.groups 0 grown 0 id;
        db.groups <- grown
      end;
      db.groups.(id) <- { name = grp; members = []; parents = []; dirty = 0 };
      Hashtbl.add db.group_ids grp id;
      id

  let add_group db grp = ignore (register_group db grp)

  let find_slot db grp =
    match Hashtbl.find_opt db.group_ids grp with
    | Some id -> Some db.groups.(id)
    | None -> None

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
  let mark_dirty db slot = slot.dirty <- Atomic.get db.generation + 1

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

  let direct_members db grp =
    match find_slot db grp with
    | Some slot -> slot.members
    | None -> []

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
                (direct_members db grp)
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
    let child =
      match member with
      | Ind ind ->
        add_individual db ind;
        None
      | Grp nested -> Some (register_group db nested)
    in
    let id = register_group db grp in
    let slot = db.groups.(id) in
    if not (List.exists (member_equal member) slot.members) then begin
      slot.members <- member :: slot.members;
      Option.iter (fun c -> db.groups.(c).parents <- id :: db.groups.(c).parents) child;
      mark_dirty db slot;
      (* Membership lands above, generation bumps after (deferred to
         the batch end when inside one): a reader that observes the
         bumped generation also sees the new list (see the ordering
         contract in Meta). *)
      publish db
    end

  let remove_member db grp member =
    match Hashtbl.find_opt db.group_ids grp with
    | None -> ()
    | Some id ->
      let slot = db.groups.(id) in
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
          slot.members
      in
      if !removed then begin
        slot.members <- kept;
        (match member with
        | Ind _ -> ()
        | Grp nested ->
          Option.iter
            (fun child -> child.parents <- List.filter (fun p -> p <> id) child.parents)
            (find_slot db nested));
        mark_dirty db slot;
        publish db
      end

  let sorted_names table =
    Hashtbl.fold (fun name _ acc -> name :: acc) table [] |> List.sort String.compare

  let individuals db = sorted_names db.ind_ids
  let mem_individual db ind = Hashtbl.mem db.ind_ids ind
  let individual_count db = Hashtbl.length db.ind_ids
  let groups db = sorted_names db.group_ids

  (* The per-group dirty stamp, for scoped-invalidation consumers
     (link-time certificates record the stamp of every group their
     proof consulted and revalidate against it).  Reading an int field
     is a single word load; mutators are externally serialized and the
     slot itself exists from registration time, so probing from reader
     domains is safe under the same contract as the snapshot
     builder. *)
  let dirty_stamp db grp =
    match find_slot db grp with
    | Some slot -> slot.dirty
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
          (direct_members db grp)
      end
    in
    walk grp;
    Hashtbl.fold (fun g () acc -> g :: acc) visited [] |> List.sort String.compare

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

  (* {2 Sorted-row merges}

     Every row is a sorted, duplicate-free [int array].  One linear
     merge serves the three row operations of a build: the union of
     closures, the symmetric difference of two rows (the ids whose
     membership flipped) and applying such flips to a row ([xor old
     flips]).  Typed [int], so each comparison is a machine compare;
     a counting pass sizes the result, so nothing is trimmed after. *)
  let merge ~keep_common (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    let rec count i j n =
      if i = la then n + lb - j
      else if j = lb then n + la - i
      else
        let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
        if x < y then count (i + 1) j (n + 1)
        else if y < x then count i (j + 1) (n + 1)
        else count (i + 1) (j + 1) (if keep_common then n + 1 else n)
    in
    let out = Array.make (count 0 0 0) 0 in
    let rec fill i j k =
      if i = la then Array.blit b j out k (lb - j)
      else if j = lb then Array.blit a i out k (la - i)
      else
        let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
        if x < y then begin
          Array.unsafe_set out k x;
          fill (i + 1) j (k + 1)
        end
        else if y < x then begin
          Array.unsafe_set out k y;
          fill i (j + 1) (k + 1)
        end
        else if keep_common then begin
          Array.unsafe_set out k x;
          fill (i + 1) (j + 1) (k + 1)
        end
        else fill (i + 1) (j + 1) k
    in
    fill 0 0 0;
    out

  (* Rows are immutable once built, so an empty side returns the other
     row itself, shared rather than copied. *)
  let union a b =
    if Array.length a = 0 then b
    else if Array.length b = 0 then a
    else merge ~keep_common:true a b

  let xor a b =
    if Array.length b = 0 then a
    else if Array.length a = 0 then b
    else merge ~keep_common:false a b

  (* Pairwise rounds: O(total length x log rows), not the
     O(total x rows) of a left fold. *)
  let rec union_all = function
    | [] -> [||]
    | [ row ] -> row
    | rows ->
      let rec pairs = function
        | a :: b :: rest -> union a b :: pairs rest
        | rest -> rest
      in
      union_all (pairs rows)

  let row_mem row id = row_search row id 0 (Array.length row)

  (* A build met a group already in progress: the walk found a cycle,
     which only a mutator racing with the walk can produce.  The
     build's rows may disagree with each other, so it must never be
     published (see [snapshot]). *)
  exception Raced

  (* The chunk a refresh starts a new chunk from.  Never written: a
     refresh copies every chunk it changes. *)
  let empty_chunk : int array array = Array.make chunk_size [||]

  let empty db =
    { snap_generation = -1; ind_ids = db.ind_ids; group_ids = db.group_ids; id_count = 0;
      group_count = 0; chunks = [||]; group_rows = [||]; direct_rows = [||] }

  (* Rebuild from [prev], in proportion to the change.  A group whose
     member list moved since [prev] was built (dirty stamp above its
     generation), or that was registered since, is recomputed: its
     direct row from the live list, merged with its children's
     closures, then diffed against its old closure to give the ids
     that flipped.  Every group above it, found through the
     reverse-membership index, re-tests only the ids that flipped in
     one of its children, against its own direct row and every child's
     new closure, so a member still reachable along a second path
     stays; it splices the ids whose answer changed into its old row.
     Groups are settled children first.  Per-individual rows change
     only for ids that flipped somewhere: the flips are counted per
     chunk, bucketed by chunk in ascending group order, and each chunk
     holding one is copied once and its rows patched, so every row's
     flips come out sorted.  Rows of untouched groups and individuals
     are shared with [prev] by reference.  The counts are read after
     the caller's generation read: a principal registered after them
     belongs to an edit that lands a later generation, so it is left
     out (and the build born stale).
     @raise Raced when the walk meets a group already in progress. *)
  let build db ~generation ~prev =
    let id_count = Hashtbl.length db.ind_ids in
    let group_count = Hashtbl.length db.group_ids in
    let slots = db.groups in
    let known = prev.group_count in
    (* u: untouched (its [prev] rows stand), a: above a dirty group,
       x: dirty or new, p: in progress, d: done. *)
    let state = Bytes.make group_count 'u' in
    let roots = ref [] in
    for g = group_count - 1 downto 0 do
      if g >= known || slots.(g).dirty > prev.snap_generation then begin
        Bytes.set state g 'x';
        roots := g :: !roots
      end
    done;
    let rec mark g =
      List.iter
        (fun p ->
          if p < group_count && Bytes.get state p = 'u' then begin
            Bytes.set state p 'a';
            mark p
          end)
        slots.(g).parents
    in
    List.iter mark !roots;
    let extend rows =
      let out = Array.make group_count [||] in
      Array.blit rows 0 out 0 known;
      out
    in
    let group_rows = extend prev.group_rows in
    let direct_rows = extend prev.direct_rows in
    let flips = Array.make group_count [||] in
    let children members =
      List.filter_map
        (function
          | Grp nested -> (
            match Hashtbl.find_opt db.group_ids nested with
            | Some c when c < group_count -> Some c
            | Some _ | None -> None)
          | Ind _ -> None)
        members
    in
    let direct members =
      let row =
        Array.of_list
          (List.filter_map
             (function
               | Ind ind -> (
                 match Hashtbl.find_opt db.ind_ids ind with
                 | Some id when id < id_count -> Some id
                 | Some _ | None -> None)
               | Grp _ -> None)
             members)
      in
      Array.sort (fun (a : int) b -> compare a b) row;
      row
    in
    let rec settle g =
      match Bytes.get state g with
      | 'u' | 'd' -> ()
      | 'p' -> raise Raced
      | kind ->
        Bytes.set state g 'p';
        let members = slots.(g).members in
        let children = children members in
        List.iter settle children;
        let old = group_rows.(g) in
        if kind = 'x' then begin
          let direct = direct members in
          let next = union_all (direct :: List.map (Array.get group_rows) children) in
          direct_rows.(g) <- direct;
          group_rows.(g) <- next;
          flips.(g) <- xor old next
        end
        else begin
          let direct = direct_rows.(g) in
          let changed =
            Array.fold_right
              (fun id acc ->
                let now =
                  row_mem direct id
                  || List.exists (fun c -> row_mem group_rows.(c) id) children
                in
                if now <> row_mem old id then id :: acc else acc)
              (union_all (List.map (Array.get flips) children))
              []
          in
          let changed = Array.of_list changed in
          flips.(g) <- changed;
          group_rows.(g) <- xor old changed
        end;
        Bytes.set state g 'd'
    in
    for g = 0 to group_count - 1 do
      settle g
    done;
    let n_chunks = (id_count + chunk_mask) lsr chunk_bits in
    let chunks = Array.make n_chunks empty_chunk in
    Array.blit prev.chunks 0 chunks 0 (Array.length prev.chunks);
    (* Count the flips per chunk, then fill each chunk's bucket with
       (group id, row in chunk) pairs, packed in one int, walking the
       groups in ascending order.  [ends.(c)] counts chunk [c]'s flips,
       becomes the start of its bucket and, once filled, its end. *)
    let ends = Array.make (n_chunks + 1) 0 in
    for g = 0 to group_count - 1 do
      let flipped = flips.(g) in
      for k = 0 to Array.length flipped - 1 do
        let c = (flipped.(k) lsr chunk_bits) + 1 in
        ends.(c) <- ends.(c) + 1
      done
    done;
    for c = 1 to n_chunks do
      ends.(c) <- ends.(c) + ends.(c - 1)
    done;
    let bucket = Array.make ends.(n_chunks) 0 in
    for g = 0 to group_count - 1 do
      let flipped = flips.(g) in
      for k = 0 to Array.length flipped - 1 do
        let c = flipped.(k) lsr chunk_bits in
        bucket.(ends.(c)) <- (g lsl chunk_bits) lor (flipped.(k) land chunk_mask);
        ends.(c) <- ends.(c) + 1
      done
    done;
    (* Per chunk: count each row's flips, then fill them into a fresh
       array in bucket order (ascending group ids) and apply it to the
       row once the last one lands. *)
    let left = Array.make chunk_size 0 in
    let pending = Array.make chunk_size [||] in
    let first = ref 0 in
    for c = 0 to n_chunks - 1 do
      let stop = ends.(c) in
      if stop > !first then begin
        (* Copy-on-write: the chunk [prev] holds is never written. *)
        let chunk = Array.copy chunks.(c) in
        for k = !first to stop - 1 do
          let j = bucket.(k) land chunk_mask in
          left.(j) <- left.(j) + 1
        done;
        for k = !first to stop - 1 do
          let j = bucket.(k) land chunk_mask in
          let n = left.(j) in
          if Array.length pending.(j) = 0 then pending.(j) <- Array.make n 0;
          let row = pending.(j) in
          row.(Array.length row - n) <- bucket.(k) lsr chunk_bits;
          left.(j) <- n - 1;
          if n = 1 then begin
            chunk.(j) <- xor chunk.(j) row;
            pending.(j) <- [||]
          end
        done;
        chunks.(c) <- chunk
      end;
      first := stop
    done;
    { snap_generation = generation; ind_ids = db.ind_ids; group_ids = db.group_ids; id_count;
      group_count; chunks; group_rows; direct_rows }

  let rec full_snapshot db =
    try build db ~generation:(Atomic.get db.generation) ~prev:(empty db)
    with Raced -> full_snapshot db

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
       them.

       A published snapshot is also the base the next refresh patches
       rather than recomputes, so one bad row in it could outlive the
       refresh that follows.  The race rule that prevents it: a
       group's base rows are reused or patched only while its dirty
       stamp is <= the base's generation; a group stamped above it, or
       registered since, is recomputed from the live lists.  A group
       still stamped <= g when the next refresh reads it had its last
       edit published at or before g, so the build that read g saw
       that edit and no later one: its direct row is exact, and its
       closure is its direct row merged with its children's closures
       in the same snapshot.  By induction over such groups, every
       group whose whole closure is stamped <= g holds its exact
       closure at g, and each refresh keeps the merge relation because
       it flips exactly the ids that flipped below.  A walk that meets
       a group already in progress breaks that relation, and only a
       racing mutator can close that cycle: such a build ([Raced]) is
       never published or served; the call decides again. *)
    let epoch = Atomic.get db.batch_epoch in
    let generation = Atomic.get db.generation in
    match Atomic.get db.snapshot_slot with
    | Some snap when snap.snap_generation = generation -> snap
    | Some prev when epoch land 1 = 1 -> prev  (* stale by generation; never validates as current *)
    | None when epoch land 1 = 1 -> (
      (* Nothing was ever published: build from the live lists but
         stamp the result born-stale (below the pre-batch generation),
         so no artifact minted from it can validate once — or while —
         the batch publishes.  Not installed in the slot: a
         partial-state snapshot must not seed later refreshes. *)
      match build db ~generation:(generation - 1) ~prev:(empty db) with
      | snap -> snap
      | exception Raced -> snapshot db)
    | prev -> (
      match build db ~generation ~prev:(Option.value prev ~default:(empty db)) with
      | exception Raced -> snapshot db
      | snap ->
        if Atomic.get db.batch_epoch <> epoch then
          (* A batch entered (or came and went) during the walk: the
             build may hold partial batch state under a stamp the batch
             has yet to invalidate.  Discard it and re-decide — the
             retry either serves the incumbent (batch still in flight)
             or rebuilds from settled lists. *)
          snapshot db
        else begin
          install_snapshot db snap;
          snap
        end)

  let groups_of db ind =
    (* Routed through the snapshot: one id probe plus the individual's
       precomputed row, instead of a transitive list walk per
       registered group.  Group ids follow registration order, so the
       names are sorted here. *)
    let snap = snapshot db in
    Snapshot.row snap ~individual_id:(Snapshot.individual_id snap ind)
    |> Array.to_list
    |> List.map (fun g -> db.groups.(g).name)
    |> List.sort String.compare
end
