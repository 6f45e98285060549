(* A directory is a string table private to this module: a
   power-of-two array of chains, each entry keeping its name's hash.  A
   probe hashes the name ([String.hash], a direct call), indexes the
   array and compares the stored hash before the string, with no
   functor or closure call on the way.

   Chains are immutable.  Writers, serialized by their tree's lock,
   store only whole values: an insert conses a new head onto its chain,
   a removal rebuilds only the entries ahead of the removed one, and
   growth fills a new array completely before one store publishes it
   (the old array is never written again).  So a walk, which takes no
   lock, sees each directory as it was before a write or after it,
   never half of one. *)
type 'a chain =
  | Nil
  | Cons of { name : string; hash : int; entry : 'a; next : 'a chain }

type 'a kind =
  | Dir of {
      mutable slots : 'a node chain array;
      mutable entries : int;
      mutable closed : bool;  (* removed: inserts refused *)
    }
  | Leaf of 'a

and 'a node = {
  node_path : Path.t;
  node_label : string;  (* node_path rendered once, for audit records *)
  mutable node_meta : Meta.t;
      (* the published value: stored whole under the tree's lock,
         loaded once by each walk that decides on it *)
  node_tree : int;
      (* id of the owning tree: add_child checks it so an insert under
         a node resolved from a different tree cannot silently mutate
         that tree while corrupting this tree's node_count *)
  kind : 'a kind;
}

type 'a t = {
  tree_id : int;
  root_node : 'a node;
  lock : Mutex.t;  (* held by every insert, removal and publication; walks take none *)
  mutable node_count : int;
      (* total nodes including the root, maintained by add/remove so
         [size] never walks the tree *)
}

type error =
  | Not_found of Path.t
  | Already_exists of Path.t
  | Not_a_directory of Path.t
  | Is_a_directory of Path.t
  | Directory_not_empty of Path.t

let pp_error ppf = function
  | Not_found path -> Format.fprintf ppf "%a: not found" Path.pp path
  | Already_exists path -> Format.fprintf ppf "%a: already exists" Path.pp path
  | Not_a_directory path -> Format.fprintf ppf "%a: not a directory" Path.pp path
  | Is_a_directory path -> Format.fprintf ppf "%a: is a directory" Path.pp path
  | Directory_not_empty path -> Format.fprintf ppf "%a: directory not empty" Path.pp path

let tree_ids = Atomic.make 0

let empty_dir slots = Dir { slots = Array.make slots Nil; entries = 0; closed = false }

let create ~root_meta () =
  let tree_id = Atomic.fetch_and_add tree_ids 1 in
  {
    tree_id;
    root_node =
      {
        node_path = Path.root;
        node_label = Path.to_string Path.root;
        node_meta = root_meta;
        node_tree = tree_id;
        kind = empty_dir 16;
      };
    lock = Mutex.create ();
    node_count = 1;
  }

let root tree = tree.root_node

let rec probe name hash = function
  | Nil -> raise_notrace Stdlib.Not_found
  | Cons c -> if c.hash = hash && String.equal c.name name then c.entry else probe name hash c.next

(* One probe into a directory: the step of every walk ([find], [chain]
   and the checked walks in [Resolver]), inlined into each, with the
   slot's first entry tested in line.  The slot index comes from the
   array the probe read, so it is in bounds whatever a writer publishes
   meanwhile.  Allocates nothing, whatever the directory's width. *)
let[@inline] child node name =
  match node.kind with
  | Leaf _ -> raise_notrace Stdlib.Not_found
  | Dir d -> (
    let slots = d.slots and hash = String.hash name in
    match Array.unsafe_get slots (hash land (Array.length slots - 1)) with
    | Cons c when c.hash = hash && String.equal c.name name -> c.entry
    | chain -> probe name hash chain)

let is_dir node =
  match node.kind with
  | Dir _ -> true
  | Leaf _ -> false

(* The walk's failure, raised where it happens and caught by [find]. *)
exception Walk_failed of error

(* The node [path] names, descending the path itself: the recursion
   reaches the root first and probes one segment on each return, so
   the nodes are visited root first with no segment list and no
   closure.  [target] is only for the error. *)
let rec descend root target path =
  if Path.is_root path then root
  else
    let dir = descend root target (Path.up path) in
    match child dir (Path.last path) with
    | node -> node
    | exception Stdlib.Not_found ->
      raise_notrace
        (Walk_failed (if is_dir dir then Not_found target else Not_a_directory dir.node_path))

let find tree target =
  match descend tree.root_node target target with
  | node -> Ok node
  | exception Walk_failed error -> Error error

let mem tree target =
  match find tree target with
  | Ok _ -> true
  | Error _ -> false

(* The nodes [path] walks through, target first; [] when it does not
   resolve. *)
let rec chain_up root path =
  if Path.is_root path then [ root ]
  else
    match chain_up root (Path.up path) with
    | [] -> []
    | dir :: _ as above -> (
      match child dir (Path.last path) with
      | node -> node :: above
      | exception Stdlib.Not_found -> [])

(* The node sequence a checked resolution consults: root, every
   interior node, then the target. *)
let chain tree target =
  match chain_up tree.root_node target with
  | [] -> None
  | nodes -> Some (List.rev nodes)

(* [slots] twice as wide, every entry re-threaded by its stored hash
   into a fresh cell, so the chains walks may still be reading stay
   whole. *)
let grown slots =
  let wider = Array.make (2 * Array.length slots) Nil in
  let mask = Array.length wider - 1 in
  let rec move = function
    | Nil -> ()
    | Cons c ->
      let i = c.hash land mask in
      wider.(i) <- Cons { c with next = wider.(i) };
      move c.next
  in
  Array.iter move slots;
  wider

(* A chain without the entry [name]: the entries ahead of it are
   copied, the ones behind it shared. *)
let rec without name hash = function
  | Nil -> Nil
  | Cons c ->
    if c.hash = hash && String.equal c.name name then c.next
    else Cons { c with next = without name hash c.next }

(* Insertion under an already-resolved parent node: the bulk-populate
   path.  A path-addressed insert re-walks from the root (O(depth));
   building a 10^5-node tree that way costs O(nodes x depth), so the
   population workload holds the parent and inserts children in O(1). *)
let owned tree what node =
  if node.node_tree <> tree.tree_id then
    invalid_arg
      (Printf.sprintf "Namespace.%s: %s belongs to a different tree" what node.node_label)

let add_child tree parent name ~meta kind_of_path =
  owned tree "add_child" parent;
  Mutex.protect tree.lock (fun () ->
      match parent.kind with
      | Leaf _ -> Error (Not_a_directory parent.node_path)
      | Dir { closed = true; _ } -> Error (Not_found parent.node_path)
      | Dir d -> (
        let target = Path.child parent.node_path name in
        match child parent name with
        | _ -> Error (Already_exists target)
        | exception Stdlib.Not_found ->
          let node =
            {
              node_path = target;
              node_label = Path.to_string target;
              node_meta = meta;
              node_tree = tree.tree_id;
              kind = kind_of_path ();
            }
          in
          (* At most two entries per slot on average, as in [Hashtbl]. *)
          if d.entries >= 2 * Array.length d.slots then d.slots <- grown d.slots;
          let slots = d.slots and hash = String.hash name in
          let i = hash land (Array.length slots - 1) in
          slots.(i) <- Cons { name; hash; entry = node; next = slots.(i) };
          d.entries <- d.entries + 1;
          tree.node_count <- tree.node_count + 1;
          Ok node))

let add_dir_at tree parent name ~meta = add_child tree parent name ~meta (fun () -> empty_dir 8)

let add_leaf_at tree parent name ~meta payload =
  add_child tree parent name ~meta (fun () -> Leaf payload)

let add_node tree target ~meta kind_of_path =
  match Path.parent target, Path.basename target with
  | None, _ | _, None -> Error (Already_exists Path.root)
  | Some parent_path, Some name -> (
    match find tree parent_path with
    | Error e -> Error e
    | Ok parent -> add_child tree parent name ~meta kind_of_path)

let add_dir tree target ~meta = add_node tree target ~meta (fun () -> empty_dir 8)

let add_leaf tree target ~meta payload = add_node tree target ~meta (fun () -> Leaf payload)

let remove tree target =
  match Path.parent target, Path.basename target with
  | None, _ | _, None -> Error (Directory_not_empty Path.root)
  | Some parent_path, Some name ->
    Mutex.protect tree.lock (fun () ->
        match find tree parent_path with
        | Error e -> Error e
        | Ok parent -> (
          match parent.kind with
          | Leaf _ -> Error (Not_a_directory parent_path)
          | Dir d -> (
            match child parent name with
            | exception Stdlib.Not_found -> Error (Not_found target)
            | { kind = Dir { entries; _ }; _ } when entries > 0 ->
              Error (Directory_not_empty target)
            | victim ->
              (match victim.kind with Dir removed -> removed.closed <- true | Leaf _ -> ());
              let slots = d.slots and hash = String.hash name in
              let i = hash land (Array.length slots - 1) in
              slots.(i) <- without name hash slots.(i);
              d.entries <- d.entries - 1;
              tree.node_count <- tree.node_count - 1;
              (* Unlink first, then retire: whatever kept the value the
                 node held no longer finds it there. *)
              victim.node_meta <- Meta.copy victim.node_meta;
              Ok ())))

let publish tree node next =
  owned tree "publish" node;
  Mutex.protect tree.lock (fun () -> node.node_meta <- next node.node_meta)

let meta node = node.node_meta

(* Here, where a node is known to be a record, an array of them is read
   without the float-array test a generic array read makes. *)
let rec holds_from nodes metas n i =
  i >= n
  || (Array.unsafe_get nodes i).node_meta == Array.unsafe_get metas i
     && holds_from nodes metas n (i + 1)

let holds nodes metas = holds_from nodes metas (Array.length nodes) 0

let path node = node.node_path
let label node = node.node_label

let payload node =
  match node.kind with
  | Dir _ -> None
  | Leaf value -> Some value

let children node =
  match node.kind with
  | Leaf _ -> []
  | Dir d ->
    let rec onto acc = function
      | Nil -> acc
      | Cons c -> onto ((c.name, c.entry) :: acc) c.next
    in
    Array.fold_left onto [] d.slots |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let rec iter_node node f =
  f node;
  List.iter (fun (_, child) -> iter_node child f) (children node)

let iter tree f = iter_node tree.root_node f

let fold tree ~init ~f =
  let acc = ref init in
  iter tree (fun node -> acc := f !acc node);
  !acc

let size tree = tree.node_count
