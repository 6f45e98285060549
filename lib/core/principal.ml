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

module Db = struct
  (* A frozen, generation-stamped view of the database used by the
     compiled decision path (see Acl_compiled): individuals and groups
     interned to dense ids, transitive membership flattened into one
     sorted group-id row per individual, plus two sorted individual-id
     rows per group, its direct members and its transitive closure.
     Snapshots are immutable after construction, so readers in other
     domains may probe them without a lock; staleness is detected by
     comparing [snap_generation] with the live generation counter.

     Successive snapshots share structure.  The per-individual rows
     live in fixed chunks of [chunk_size], so a refresh copies the
     chunk spine and only the chunks holding a changed row.  When the
     registered population is unchanged, a refresh recomputes the
     groups whose member list moved since the previous build and
     re-tests, in each of their ancestors, only the individuals whose
     membership changed below it (see [build_delta]): cost scales with
     the edit, not the population.  The intern tables are shared by
     reference across generations. *)
  type snapshot = {
    snap_generation : int;
    ids : (string, int) Hashtbl.t;  (* individual name -> dense id *)
    id_count : int;
    group_ids : (string, int) Hashtbl.t;  (* group name -> dense id *)
    group_count : int;
    group_names : string array;  (* dense group id -> name, sorted *)
    chunks : int array array array;
        (* per individual id [i], at [chunks.(i / chunk_size).(i mod
           chunk_size)]: the sorted dense ids of every group the
           individual transitively belongs to *)
    group_rows : int array array;
        (* per group id: the sorted dense ids of every individual in
           the group's transitive closure *)
    direct_rows : int array array;
        (* per group id: the sorted dense ids of the group's direct
           individual members *)
  }

  let chunk_bits = 8
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1

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

    (* The name -> id table stands for the whole interning: it is made
       together with the group table and the group names, by
       [build_snapshot] alone, and a delta shares all three. *)
    type interning = (string, int) Hashtbl.t
    type row = int array

    let generation snap = snap.snap_generation
    let interning snap = snap.ids

    (* Allocation-free id lookup (raising a constant exception instead
       of building an option): the decision hot path runs this once
       per check. *)
    let individual_id snap ind =
      try Hashtbl.find snap.ids ind with Not_found -> -1

    let group_id snap grp =
      try Hashtbl.find snap.group_ids grp with Not_found -> -1

    (* [[||]] is the one empty-array atom, so an out-of-range id
       allocates nothing. *)
    let row snap ~individual_id =
      if individual_id < 0 || individual_id >= snap.id_count then [||]
      else
        Array.unsafe_get
          (Array.unsafe_get snap.chunks (individual_id lsr chunk_bits))
          (individual_id land chunk_mask)

    (* A static array no build ever stores. *)
    let no_row = [| -1 |]

    (* Rows hold only interned group ids, so an unknown [group_id]
       (including [-1]) is found in none. *)
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

  (* The sorted ids of a member list's individuals.  An individual the
     intern table lacks was registered after it was built; the
     generation that registration publishes covers it. *)
  let direct_row ids members =
    let row =
      Array.of_list
        (List.filter_map
           (function
             | Ind ind -> Hashtbl.find_opt ids ind
             | Grp _ -> None)
           members)
    in
    Array.sort (fun (a : int) b -> compare a b) row;
    row

  let individual_row chunks id = chunks.(id lsr chunk_bits).(id land chunk_mask)

  (* Invert the per-group closures into the per-individual rows,
     chunked.  Group ids ascend across the fill, so every row comes
     out sorted without a per-row sort. *)
  let chunks_of_group_rows ~id_count group_rows =
    let counts = Array.make (Stdlib.max 1 id_count) 0 in
    Array.iter (Array.iter (fun id -> counts.(id) <- counts.(id) + 1)) group_rows;
    let chunks =
      Array.init ((id_count + chunk_mask) lsr chunk_bits) (fun c ->
          let first = c lsl chunk_bits in
          Array.init (Stdlib.min chunk_size (id_count - first)) (fun j ->
              Array.make counts.(first + j) 0))
    in
    (* [counts] becomes each row's fill cursor. *)
    Array.fill counts 0 (Array.length counts) 0;
    Array.iteri
      (fun gid grow ->
        Array.iter
          (fun id ->
            (individual_row chunks id).(counts.(id)) <- gid;
            counts.(id) <- counts.(id) + 1)
          grow)
      group_rows;
    chunks

  (* A build met a group already in progress: the walk found a cycle,
     which only a mutator racing with the walk can produce.  The
     build's rows may disagree with each other, so it must never be
     published (see [snapshot]). *)
  exception Raced

  let nested_groups members =
    List.filter_map
      (function
        | Grp nested -> Some nested
        | Ind _ -> None)
      members

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
    let direct_rows = Array.make group_count [||] in
    let group_rows = Array.make group_count [||] in
    (* Transitive member closure per group, children first and each
       once: its direct row merged with its children's closures.
       add_member rejects membership cycles, so meeting a group still
       in progress means a racing mutator. *)
    let state = Bytes.make group_count 'n' (* n: new, p: in progress, d: done *) in
    let rec settle gid =
      match Bytes.get state gid with
      | 'd' -> group_rows.(gid)
      | 'p' -> raise Raced
      | _ ->
        Bytes.set state gid 'p';
        let members = direct_members db group_names.(gid) in
        let direct = direct_row ids members in
        (* A nested group unknown to [group_ids] was registered after
           the listing, and its member edge after the generation read:
           this build is born stale either way. *)
        let children =
          List.filter_map (Hashtbl.find_opt group_ids) (nested_groups members)
        in
        let closure = union_all (direct :: List.map settle children) in
        direct_rows.(gid) <- direct;
        group_rows.(gid) <- closure;
        Bytes.set state gid 'd';
        closure
    in
    for gid = 0 to group_count - 1 do
      ignore (settle gid)
    done;
    { snap_generation = generation; ids; id_count; group_ids; group_count;
      group_names; chunks = chunks_of_group_rows ~id_count group_rows;
      group_rows; direct_rows }

  (* Delta rebuild from [prev], in proportion to the edit.  A group
     whose member list moved since [prev] was built (dirty stamp above
     its generation) is recomputed: its direct row from the live list,
     merged with its children's closures, then diffed against its old
     closure to give the ids that flipped.  Every group above it, found
     through the reverse-membership index, re-tests only the ids that
     flipped in one of its children, against its own direct row and
     every child's new closure, so a member still reachable along a
     second path stays; it splices the ids whose answer changed into
     its old row.  Groups are settled children first.  Per-individual
     rows change only for ids that flipped somewhere: the chunk spine
     is copied, and each chunk holding a changed row once.  Rows of
     untouched groups and individuals, and both intern tables, are
     shared with [prev] by reference.  Preconditions checked by the
     caller: no individual or group was registered since [prev].
     @raise Not_found when an affected group is unknown to [prev]
     (population drifted after all); the caller falls back to a full
     build.
     @raise Raced as [build_snapshot]. *)
  let build_delta db ~generation ~prev =
    let gid grp = Hashtbl.find prev.group_ids grp in
    let group_count = prev.group_count in
    (* u: untouched (its [prev] rows stand), a: above a dirty group,
       x: dirty, p: in progress, d: done. *)
    let state = Bytes.make group_count 'u' in
    let roots =
      Hashtbl.fold
        (fun grp slot acc -> if !slot > prev.snap_generation then grp :: acc else acc)
        db.dirty []
    in
    List.iter (fun grp -> Bytes.set state (gid grp) 'x') roots;
    let rec mark grp =
      match Hashtbl.find_opt db.parents grp with
      | None -> ()
      | Some pslot ->
        String_set.iter
          (fun parent ->
            let g = gid parent in
            if Bytes.get state g = 'u' then begin
              Bytes.set state g 'a';
              mark parent
            end)
          !pslot
    in
    List.iter mark roots;
    let group_rows = Array.copy prev.group_rows in
    let direct_rows = Array.copy prev.direct_rows in
    let flips = Array.make group_count [||] in
    let rec settle g =
      match Bytes.get state g with
      | 'u' | 'd' -> ()
      | 'p' -> raise Raced
      | kind ->
        Bytes.set state g 'p';
        let members = direct_members db prev.group_names.(g) in
        let children = List.map gid (nested_groups members) in
        List.iter settle children;
        let old = prev.group_rows.(g) in
        if kind = 'x' then begin
          let direct = direct_row prev.ids members in
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
    (* Individual id -> the groups it flipped in, ascending: groups are
       visited from the highest id down and prepended. *)
    let edits : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
    for g = group_count - 1 downto 0 do
      let flipped = flips.(g) in
      for k = 0 to Array.length flipped - 1 do
        match Hashtbl.find_opt edits flipped.(k) with
        | Some slot -> slot := g :: !slot
        | None -> Hashtbl.add edits flipped.(k) (ref [ g ])
      done
    done;
    let chunks = Array.copy prev.chunks in
    Hashtbl.iter
      (fun id slot ->
        let c = id lsr chunk_bits in
        (* Copy-on-write: the chunk [prev] holds is never written. *)
        if chunks.(c) == prev.chunks.(c) then chunks.(c) <- Array.copy prev.chunks.(c);
        let j = id land chunk_mask in
        chunks.(c).(j) <- xor chunks.(c).(j) (Array.of_list !slot))
      edits;
    { prev with snap_generation = generation; chunks; group_rows; direct_rows }

  let rec full_snapshot db =
    try build_snapshot db ~generation:(Atomic.get db.generation)
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

       A published snapshot is also the base the next delta patches
       rather than recomputes, so one bad row in it could outlive the
       refresh that follows.  The race rule that prevents it: a
       group's base rows are reused or patched only while its dirty
       stamp is <= the base's generation; a group stamped above it is
       recomputed from the live lists.  A group still stamped <= g
       when the next delta reads it had its last edit published at or
       before g, so the build that read g saw that edit and no later
       one: its direct row is exact, and its closure is its direct row
       merged with its children's closures in the same snapshot.  By induction over such groups, every
       group whose whole closure is stamped <= g holds its exact
       closure at g, and each delta keeps the merge relation because
       it flips exactly the ids that flipped below.  A walk that meets
       a group already in progress breaks that relation, and only a
       racing mutator can close that cycle: such a build ([Raced]) is
       never published or served; the call decides again. *)
    let epoch = Atomic.get db.batch_epoch in
    let generation = Atomic.get db.generation in
    match Atomic.get db.snapshot_slot with
    | Some snap when snap.snap_generation = generation -> snap
    | prev_slot ->
      if epoch land 1 = 1 then begin
        match prev_slot with
        | Some prev -> prev  (* stale by generation; never validates as current *)
        | None -> (
          (* Nothing was ever published: build from the live lists but
             stamp the result born-stale (below the pre-batch
             generation), so no artifact minted from it can validate
             once — or while — the batch publishes.  Not installed in
             the slot: a partial-state snapshot must not seed later
             delta rebuilds. *)
          match build_snapshot db ~generation:(generation - 1) with
          | snap -> snap
          | exception Raced -> snapshot db)
      end
      else begin
        match
          match prev_slot with
          | Some prev
            when prev.id_count = db.individual_count
                 && prev.group_count = Hashtbl.length db.members -> (
            (* Same registered population: rebuild only what the churn
               since [prev] touched. *)
            try build_delta db ~generation ~prev
            with Not_found -> build_snapshot db ~generation)
          | Some _ | None -> build_snapshot db ~generation
        with
        | exception Raced -> snapshot db
        | snap ->
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
      List.map (fun gid -> snap.group_names.(gid)) (Array.to_list (individual_row snap.chunks id))
end
