open Exsec_core

let check = Alcotest.(check bool)

let hierarchy = Level.hierarchy [ "hi"; "lo" ]
let universe = Category.universe [ "c" ]
let bottom = Security_class.bottom hierarchy universe
let owner = Principal.individual "owner"
let meta () = Meta.make ~owner bottom

let make () = Namespace.create ~root_meta:(meta ()) ()

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" Namespace.pp_error e)

let test_add_and_find () =
  let ns = make () in
  let _ = ok "dir" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "leaf" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 42) in
  let node = ok "find" (Namespace.find ns (Path.of_string "/a/x")) in
  check "payload" true (Namespace.payload node = Some 42);
  check "is not dir" false (Namespace.is_dir node);
  check "mem" true (Namespace.mem ns (Path.of_string "/a"));
  check "not mem" false (Namespace.mem ns (Path.of_string "/b"))

let test_find_root () =
  let ns = make () in
  let node = ok "root" (Namespace.find ns Path.root) in
  check "root is dir" true (Namespace.is_dir node);
  check "root path" true (Path.is_root (Namespace.path node))

let test_missing_parent () =
  let ns = make () in
  match Namespace.add_dir ns (Path.of_string "/a/b") ~meta:(meta ()) with
  | Error (Namespace.Not_found _) -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_duplicate () =
  let ns = make () in
  let _ = ok "first" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  match Namespace.add_leaf ns (Path.of_string "/a") ~meta:(meta ()) 0 with
  | Error (Namespace.Already_exists _) -> ()
  | _ -> Alcotest.fail "expected Already_exists"

let test_leaf_is_not_a_directory () =
  let ns = make () in
  let _ = ok "leaf" (Namespace.add_leaf ns (Path.of_string "/x") ~meta:(meta ()) 1) in
  (match Namespace.add_dir ns (Path.of_string "/x/y") ~meta:(meta ()) with
  | Error (Namespace.Not_a_directory _) -> ()
  | _ -> Alcotest.fail "expected Not_a_directory on add");
  match Namespace.find ns (Path.of_string "/x/y") with
  | Error (Namespace.Not_a_directory _) -> ()
  | _ -> Alcotest.fail "expected Not_a_directory on find"

let test_children_sorted () =
  let ns = make () in
  List.iter
    (fun name ->
      ignore (ok name (Namespace.add_dir ns (Path.of_string ("/" ^ name)) ~meta:(meta ()))))
    [ "zebra"; "apple"; "mango" ];
  let root = ok "root" (Namespace.find ns Path.root) in
  Alcotest.(check (list string))
    "sorted" [ "apple"; "mango"; "zebra" ]
    (List.map fst (Namespace.children root))

let test_remove () =
  let ns = make () in
  let _ = ok "dir" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "leaf" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 1) in
  (* Non-empty directory refuses. *)
  (match Namespace.remove ns (Path.of_string "/a") with
  | Error (Namespace.Directory_not_empty _) -> ()
  | _ -> Alcotest.fail "expected Directory_not_empty");
  let () = ok "rm leaf" (Namespace.remove ns (Path.of_string "/a/x")) in
  let () = ok "rm dir" (Namespace.remove ns (Path.of_string "/a")) in
  check "gone" false (Namespace.mem ns (Path.of_string "/a"));
  match Namespace.remove ns (Path.of_string "/a") with
  | Error (Namespace.Not_found _) -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_size_iter_fold () =
  let ns = make () in
  let _ = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "b" (Namespace.add_dir ns (Path.of_string "/a/b") ~meta:(meta ())) in
  let _ = ok "x" (Namespace.add_leaf ns (Path.of_string "/a/b/x") ~meta:(meta ()) 7) in
  let _ = ok "y" (Namespace.add_leaf ns (Path.of_string "/a/y") ~meta:(meta ()) 8) in
  Alcotest.(check int) "size" 5 (Namespace.size ns);
  let leaves = Namespace.fold ns ~init:0 ~f:(fun n node -> if Namespace.is_dir node then n else n + 1) in
  Alcotest.(check int) "leaves" 2 leaves;
  let sum =
    Namespace.fold ns ~init:0 ~f:(fun n node ->
        match Namespace.payload node with
        | Some v -> n + v
        | None -> n)
  in
  Alcotest.(check int) "payload sum" 15 sum

let test_per_node_meta_is_independent () =
  let ns = make () in
  let m1 = meta () in
  let m2 = meta () in
  let node_a = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:m1) in
  let _ = ok "b" (Namespace.add_dir ns (Path.of_string "/b") ~meta:m2) in
  Namespace.publish ns node_a (fun m ->
      Meta.with_acl m (Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ]));
  let node_b = ok "find b" (Namespace.find ns (Path.of_string "/b")) in
  check "b unchanged" true (Acl.equal (Namespace.meta node_b).Meta.acl (Acl.owner_default owner))

let prop_insert_then_find =
  let seg = QCheck.Gen.(string_size ~gen:(char_range 'a' 'f') (int_range 1 3)) in
  let arb = QCheck.make QCheck.Gen.(list_size (int_range 1 20) (list_size (int_range 1 4) seg)) in
  QCheck.Test.make ~name:"every inserted path is findable" ~count:100 arb (fun paths ->
      let ns = make () in
      let inserted =
        List.filter_map
          (fun segments ->
            let path = Path.of_segments segments in
            (* Ensure ancestors exist as dirs. *)
            let rec ensure = function
              | [] -> ()
              | prefix ->
                (match Path.parent (Path.of_segments prefix) with
                | Some parent -> ensure (Path.segments parent)
                | None -> ());
                ignore (Namespace.add_dir ns (Path.of_segments prefix) ~meta:(meta ()))
            in
            (match Path.parent path with
            | Some parent -> ensure (Path.segments parent)
            | None -> ());
            match Namespace.add_leaf ns path ~meta:(meta ()) 0 with
            | Ok _ -> Some path
            | Error _ -> None)
          paths
      in
      List.for_all (Namespace.mem ns) inserted)

let test_counter_size () =
  (* [size] is a maintained counter now; hold it to the fold it
     replaced across adds, failed adds and removes. *)
  let ns = make () in
  let folded () = Namespace.fold ns ~init:0 ~f:(fun n _ -> n + 1) in
  let agree label = Alcotest.(check int) label (folded ()) (Namespace.size ns) in
  agree "fresh";
  let _ = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "x" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 1) in
  agree "after adds";
  (match Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 2 with
  | Ok _ -> Alcotest.fail "duplicate accepted"
  | Error _ -> ());
  agree "failed add does not count";
  (match Namespace.remove ns (Path.of_string "/a") with
  | Ok () -> Alcotest.fail "non-empty dir removed"
  | Error _ -> ());
  agree "failed remove does not count";
  let () = ok "rm x" (Namespace.remove ns (Path.of_string "/a/x")) in
  let () = ok "rm a" (Namespace.remove ns (Path.of_string "/a")) in
  agree "after removes";
  Alcotest.(check int) "back to just the root" 1 (Namespace.size ns)

let test_add_at_parent () =
  (* The O(1) bulk-populate inserts: children of an already-resolved
     parent, no path re-walk — and the same error discipline as the
     path-addressed inserts. *)
  let ns = make () in
  let dir = ok "dir" (Namespace.add_dir_at ns (Namespace.root ns) "a" ~meta:(meta ())) in
  let leaf = ok "leaf" (Namespace.add_leaf_at ns dir "x" ~meta:(meta ()) 7) in
  check "path composed from parent" true
    (Path.equal (Namespace.path leaf) (Path.of_string "/a/x"));
  check "findable through the tree" true (Namespace.mem ns (Path.of_string "/a/x"));
  Alcotest.(check int) "counted" 3 (Namespace.size ns);
  (match Namespace.add_dir_at ns (Namespace.root ns) "a" ~meta:(meta ()) with
  | Ok _ -> Alcotest.fail "duplicate child accepted"
  | Error (Namespace.Already_exists _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Namespace.pp_error e);
  (match Namespace.add_dir_at ns leaf "y" ~meta:(meta ()) with
  | Ok _ -> Alcotest.fail "child of a leaf accepted"
  | Error (Namespace.Not_a_directory _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Namespace.pp_error e);
  Alcotest.(check int) "failures uncounted" 3 (Namespace.size ns)

let test_add_under_removed_dir () =
  (* A node held across its directory's removal: an insert through it
     would add a child no walk reaches and count it in [size]. *)
  let ns = make () in
  let a = ok "a" (Namespace.add_dir_at ns (Namespace.root ns) "a" ~meta:(meta ())) in
  let () = ok "rm a" (Namespace.remove ns (Path.of_string "/a")) in
  (match Namespace.add_leaf_at ns a "x" ~meta:(meta ()) 1 with
  | Error (Namespace.Not_found path) ->
    check "names the removed parent" true (Path.equal path (Path.of_string "/a"))
  | Ok _ -> Alcotest.fail "insert under a removed directory accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Namespace.pp_error e);
  Alcotest.(check int) "nothing counted" 1 (Namespace.size ns);
  Alcotest.(check int) "size is the fold" (Namespace.fold ns ~init:0 ~f:(fun n _ -> n + 1))
    (Namespace.size ns);
  check "not reachable" false (Namespace.mem ns (Path.of_string "/a/x"));
  (* A directory made again under the old name is a new, open one. *)
  let _ = ok "a again" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "x" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 1) in
  check "reachable under the new /a" true (Namespace.mem ns (Path.of_string "/a/x"))

let test_add_at_foreign_parent () =
  (* A parent resolved from a DIFFERENT tree is rejected outright:
     accepting it would mutate the other tree's structure while
     incrementing this tree's node counter, silently corrupting the
     size of both. *)
  let ns = make () in
  let other = make () in
  let foreign = ok "other dir" (Namespace.add_dir_at other (Namespace.root other) "a" ~meta:(meta ())) in
  (match Namespace.add_dir_at ns foreign "b" ~meta:(meta ()) with
  | (exception Invalid_argument _) -> ()
  | Ok _ -> Alcotest.fail "foreign parent accepted"
  | Error e -> Alcotest.failf "error instead of rejection: %a" Namespace.pp_error e);
  (match Namespace.add_leaf_at ns foreign "x" ~meta:(meta ()) 1 with
  | (exception Invalid_argument _) -> ()
  | Ok _ -> Alcotest.fail "foreign parent accepted"
  | Error e -> Alcotest.failf "error instead of rejection: %a" Namespace.pp_error e);
  Alcotest.(check int) "this tree unchanged" 1 (Namespace.size ns);
  Alcotest.(check int) "other tree unchanged" 2 (Namespace.size other);
  check "nothing appeared under the foreign node" false
    (Namespace.mem other (Path.of_string "/a/b"))

(* {1 One directory against a map}

   Scripts of inserts, removals and finds on one directory, over names
   of 1-12 letters from a three-letter alphabet, so that many names
   share a slot; then every name left is removed.  A directory starts
   with 8 slots and doubles at two entries per slot, so a script that
   holds more than 128 names has grown it four times before the drain
   empties it.  After every step the directory answers [child], [find]
   and [mem] for the step's name, [child] for every name the map holds,
   and [children] and [size], as the map does. *)

module Names = Map.Make (String)

type op =
  | Add of string
  | Remove of string
  | Find of string

let show_op = function
  | Add name -> "add " ^ name
  | Remove name -> "remove " ^ name
  | Find name -> "find " ^ name

let script_gen =
  let open QCheck.Gen in
  let* pool =
    array_size (int_range 150 300) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 1 12))
  in
  let name = map (Array.get pool) (int_bound (Array.length pool - 1)) in
  list_size (int_range 300 1000)
    (frequency
       [
         6, map (fun n -> Add n) name;
         2, map (fun n -> Remove n) name;
         2, map (fun n -> Find n) name;
       ])

let prop_directory_matches_map =
  QCheck.Test.make ~name:"a directory answers as a map through growth and drain" ~count:30
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) script_gen)
    (fun ops ->
      let ns = make () in
      let dir = ok "dir" (Namespace.add_dir_at ns (Namespace.root ns) "d" ~meta:(meta ())) in
      let at name = Path.child (Namespace.path dir) name in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let payload_of node = Option.value (Namespace.payload node) ~default:(-1) in
      let probed name =
        match Namespace.child dir name with
        | node -> Some (payload_of node)
        | exception Not_found -> None
      in
      let agree model name =
        let expected = Names.find_opt name model in
        let found =
          match Namespace.find ns (at name) with
          | Ok node -> Some (payload_of node)
          | Error (Namespace.Not_found _) -> None
          | Error e -> fail "find %s: %a" name Namespace.pp_error e
        in
        if probed name <> expected || found <> expected then
          fail "%s: lookups disagree with the map" name;
        if Namespace.mem ns (at name) <> Option.is_some expected then fail "mem %s" name;
        Names.iter
          (fun known payload -> if probed known <> Some payload then fail "%s: probe lost it" known)
          model;
        let listed = List.map (fun (name, node) -> name, payload_of node) (Namespace.children dir) in
        if listed <> Names.bindings model then fail "children disagree with the map";
        if Namespace.size ns <> Names.cardinal model + 2 then fail "size disagrees with the map"
      in
      let step (model, next) op =
        let model, next, name =
          match op with
          | Add name -> (
            match Namespace.add_leaf_at ns dir name ~meta:(meta ()) next, Names.mem name model with
            | Ok _, false -> Names.add name next model, next + 1, name
            | Error (Namespace.Already_exists _), true -> model, next, name
            | _ -> fail "add %s disagrees with the map" name)
          | Remove name -> (
            match Namespace.remove ns (at name), Names.mem name model with
            | Ok (), true -> Names.remove name model, next, name
            | Error (Namespace.Not_found _), false -> model, next, name
            | _ -> fail "remove %s disagrees with the map" name)
          | Find name -> model, next, name
        in
        agree model name;
        model, next
      in
      let model, _ = List.fold_left step (Names.empty, 0) ops in
      let drained, _ =
        List.fold_left step (model, 0) (List.map (fun (name, _) -> Remove name) (Names.bindings model))
      in
      Names.is_empty drained && Namespace.size ns = 2 && Namespace.children dir = [])

(* {1 The walk}

   [find] and [chain] descend the path itself: a node's path is its
   parent's plus one segment, a found node's path is the path asked
   for, and a failed walk names the same error as before. *)

let test_walk_shares_paths () =
  let ns = make () in
  let a = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let b = ok "b" (Namespace.add_dir_at ns a "b" ~meta:(meta ())) in
  let leaf = ok "leaf" (Namespace.add_leaf_at ns b "c" ~meta:(meta ()) 3) in
  check "a child's path extends its parent's own" true
    (Path.up (Namespace.path leaf) == Namespace.path b);
  let target = Path.of_string "/a/b/c" in
  check "find" true (ok "find" (Namespace.find ns target) == leaf);
  (match Namespace.chain ns target with
  | Some nodes ->
    Alcotest.(check (list string)) "chain, root first" [ "/"; "/a"; "/a/b"; "/a/b/c" ]
      (List.map Namespace.label nodes)
  | None -> Alcotest.fail "chain");
  check "no chain through a missing name" true
    (Namespace.chain ns (Path.of_string "/a/x/c") = None);
  check "no chain through a leaf" true (Namespace.chain ns (Path.of_string "/a/b/c/d") = None);
  (match Namespace.find ns (Path.of_string "/a/x/c") with
  | Error (Namespace.Not_found missing) ->
    check "a missing name reports the whole target" true
      (Path.equal missing (Path.of_string "/a/x/c"))
  | _ -> Alcotest.fail "expected Not_found");
  match Namespace.find ns (Path.of_string "/a/b/c/d/e") with
  | Error (Namespace.Not_a_directory at) ->
    check "a leaf mid-path reports the leaf" true (Path.equal at target)
  | _ -> Alcotest.fail "expected Not_a_directory"

(* [find] allocates only the [Ok] it returns (2 words): the walk
   itself builds no segment list and no closure. *)
let test_find_allocates_only_its_result () =
  let ns = make () in
  let a = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let b = ok "b" (Namespace.add_dir_at ns a "b" ~meta:(meta ())) in
  for i = 0 to 63 do
    ignore (ok "sibling" (Namespace.add_dir_at ns a (Printf.sprintf "b%d" i) ~meta:(meta ())))
  done;
  ignore (ok "leaf" (Namespace.add_leaf_at ns b "c" ~meta:(meta ()) 3));
  let target = Path.of_string "/a/b/c" in
  let calls = 10_000 in
  let run () =
    for _ = 1 to calls do
      ignore (Namespace.find ns target)
    done
  in
  run ();
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = minor_delta (fun () -> ()) in
  let per_call = (minor_delta run -. baseline) /. float_of_int calls in
  Alcotest.(check (float 0.)) "words per find" 2. per_call

(* A 100,000-segment path walks without overflowing the stack. *)
let test_deep_find () =
  let ns = make () in
  ignore (ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())));
  let deep = Path.of_string ("/a/" ^ String.concat "/" (List.init 100_000 (fun _ -> "x"))) in
  (match Namespace.find ns deep with
  | Error (Namespace.Not_found missing) -> check "names the target" true (missing == deep)
  | _ -> Alcotest.fail "expected Not_found");
  check "no chain" true (Namespace.chain ns deep = None);
  check "not mem" false (Namespace.mem ns deep)

let suite =
  [
    Alcotest.test_case "add and find" `Quick test_add_and_find;
    Alcotest.test_case "size counter tracks the fold" `Quick test_counter_size;
    Alcotest.test_case "insert under a resolved parent" `Quick test_add_at_parent;
    Alcotest.test_case "foreign parent rejected" `Quick test_add_at_foreign_parent;
    Alcotest.test_case "an insert under a removed directory is refused" `Quick
      test_add_under_removed_dir;
    Alcotest.test_case "find root" `Quick test_find_root;
    Alcotest.test_case "missing parent" `Quick test_missing_parent;
    Alcotest.test_case "duplicate" `Quick test_duplicate;
    Alcotest.test_case "leaf is not a dir" `Quick test_leaf_is_not_a_directory;
    Alcotest.test_case "children sorted" `Quick test_children_sorted;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "size/iter/fold" `Quick test_size_iter_fold;
    Alcotest.test_case "independent metadata" `Quick test_per_node_meta_is_independent;
    QCheck_alcotest.to_alcotest prop_insert_then_find;
    QCheck_alcotest.to_alcotest prop_directory_matches_map;
    Alcotest.test_case "the walk shares paths" `Quick test_walk_shares_paths;
    Alcotest.test_case "find allocates only its result" `Quick
      test_find_allocates_only_its_result;
    Alcotest.test_case "a 100,000-segment find" `Quick test_deep_find;
  ]
