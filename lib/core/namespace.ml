type 'a kind =
  | Dir of (string, 'a node) Hashtbl.t
  | Leaf of 'a

and 'a node = {
  node_path : Path.t;
  node_label : string;  (* node_path rendered once, for audit records *)
  node_meta : Meta.t;
  node_tree : int;
      (* id of the owning tree: add_child checks it so an insert under
         a node resolved from a different tree cannot silently mutate
         that tree while corrupting this tree's node_count *)
  kind : 'a kind;
}

type 'a t = {
  tree_id : int;
  root_node : 'a node;
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
        kind = Dir (Hashtbl.create 16);
      };
    node_count = 1;
  }

let root tree = tree.root_node

(* One probe into a directory's hash table: the step of every walk
   ([find], [chain] and the checked walks in [Resolver]).  Allocates
   nothing, whatever the directory's width. *)
let child node name =
  match node.kind with
  | Leaf _ -> raise Stdlib.Not_found
  | Dir table -> Hashtbl.find table name

let is_dir node =
  match node.kind with
  | Dir _ -> true
  | Leaf _ -> false

let find tree target =
  let rec walk node = function
    | [] -> Ok node
    | segment :: rest -> (
      match child node segment with
      | next -> walk next rest
      | exception Stdlib.Not_found ->
        if is_dir node then Error (Not_found target)
        else Error (Not_a_directory node.node_path))
  in
  walk tree.root_node (Path.segments target)

let mem tree target =
  match find tree target with
  | Ok _ -> true
  | Error _ -> false

(* The node sequence a checked resolution consults: root, every
   interior node, then the target — the chain a reusable decision
   (link-time certificate, capability-handle grant) must stamp with
   metadata generations. *)
let chain tree target =
  let rec walk node acc = function
    | [] -> Some (List.rev (node :: acc))
    | segment :: rest -> (
      match child node segment with
      | next -> walk next (node :: acc) rest
      | exception Stdlib.Not_found -> None)
  in
  walk tree.root_node [] (Path.segments target)

(* Insertion under an already-resolved parent node: the bulk-populate
   path.  A path-addressed insert re-walks from the root (O(depth));
   building a 10^5-node tree that way costs O(nodes x depth), so the
   population workload holds the parent and inserts children in O(1). *)
let add_child tree parent name ~meta kind_of_path =
  if parent.node_tree <> tree.tree_id then
    invalid_arg
      (Printf.sprintf
         "Namespace.add_child: parent %s belongs to a different tree"
         parent.node_label);
  match parent.kind with
  | Leaf _ -> Error (Not_a_directory parent.node_path)
  | Dir table ->
    let target = Path.child parent.node_path name in
    if Hashtbl.mem table name then Error (Already_exists target)
    else begin
      let node =
        {
          node_path = target;
          node_label = Path.to_string target;
          node_meta = meta;
          node_tree = tree.tree_id;
          kind = kind_of_path ();
        }
      in
      Hashtbl.add table name node;
      tree.node_count <- tree.node_count + 1;
      Ok node
    end

let add_dir_at tree parent name ~meta =
  add_child tree parent name ~meta (fun () -> Dir (Hashtbl.create 8))

let add_leaf_at tree parent name ~meta payload =
  add_child tree parent name ~meta (fun () -> Leaf payload)

let add_node tree target ~meta kind_of_path =
  match Path.parent target, Path.basename target with
  | None, _ | _, None -> Error (Already_exists Path.root)
  | Some parent_path, Some name -> (
    match find tree parent_path with
    | Error e -> Error e
    | Ok parent -> add_child tree parent name ~meta kind_of_path)

let add_dir tree target ~meta =
  add_node tree target ~meta (fun () -> Dir (Hashtbl.create 8))

let add_leaf tree target ~meta payload = add_node tree target ~meta (fun () -> Leaf payload)

let remove tree target =
  match Path.parent target, Path.basename target with
  | None, _ | _, None -> Error (Directory_not_empty Path.root)
  | Some parent_path, Some name -> (
    match find tree parent_path with
    | Error e -> Error e
    | Ok parent -> (
      match parent.kind with
      | Leaf _ -> Error (Not_a_directory parent_path)
      | Dir table -> (
        match Hashtbl.find_opt table name with
        | None -> Error (Not_found target)
        | Some { kind = Dir children; _ } when Hashtbl.length children > 0 ->
          Error (Directory_not_empty target)
        | Some victim ->
          Hashtbl.remove table name;
          tree.node_count <- tree.node_count - 1;
          (* Unlink first, then retire: a re-mint that still found the
             node read its generation before this bump. *)
          Meta.touch victim.node_meta;
          Ok ())))

let meta node = node.node_meta
let path node = node.node_path
let label node = node.node_label

let payload node =
  match node.kind with
  | Dir _ -> None
  | Leaf value -> Some value

let children node =
  match node.kind with
  | Leaf _ -> []
  | Dir table ->
    Hashtbl.fold (fun name child acc -> (name, child) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let rec iter_node node f =
  f node;
  List.iter (fun (_, child) -> iter_node child f) (children node)

let iter tree f = iter_node tree.root_node f

let fold tree ~init ~f =
  let acc = ref init in
  iter tree (fun node -> acc := f !acc node);
  !acc

let size tree = tree.node_count
