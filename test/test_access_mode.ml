open Exsec_core

let check = Alcotest.(check bool)

let test_string_roundtrip () =
  List.iter
    (fun mode ->
      match Access_mode.of_string (Access_mode.to_string mode) with
      | Some back -> check "roundtrip" true (Access_mode.equal mode back)
      | None -> Alcotest.failf "no roundtrip for %s" (Access_mode.to_string mode))
    Access_mode.all

let test_of_string_unknown () =
  check "unknown" true (Access_mode.of_string "frobnicate" = None);
  check "case-sensitive" true (Access_mode.of_string "Read" = None)

let test_read_write_partition () =
  (* Every mode is read-like or write-like, never both. *)
  List.iter
    (fun mode ->
      check
        (Access_mode.to_string mode)
        true
        (Access_mode.is_read_like mode <> Access_mode.is_write_like mode))
    Access_mode.all

let test_extend_is_read_like () =
  check "extend" true (Access_mode.is_read_like Access_mode.Extend);
  check "execute" true (Access_mode.is_read_like Access_mode.Execute);
  check "administrate" true (Access_mode.is_write_like Access_mode.Administrate)

let test_set_basics () =
  let open Access_mode in
  let s = Set.of_list [ Read; Write; Read ] in
  Alcotest.(check int) "cardinal dedups" 2 (Set.cardinal s);
  check "mem read" true (Set.mem Read s);
  check "mem extend" false (Set.mem Extend s);
  check "subset" true (Set.subset s Set.full);
  check "full has all" true (List.for_all (fun m -> Set.mem m Set.full) all);
  Alcotest.(check int) "full cardinal" 8 (Set.cardinal Set.full);
  check "empty" true (Set.is_empty Set.empty)

let test_set_algebra () =
  let open Access_mode in
  let a = Set.of_list [ Read; Write ] in
  let b = Set.of_list [ Write; Extend ] in
  Alcotest.(check int) "union" 3 (Set.cardinal (Set.union a b));
  Alcotest.(check int) "inter" 1 (Set.cardinal (Set.inter a b));
  Alcotest.(check int) "diff" 1 (Set.cardinal (Set.diff a b));
  check "diff member" true (Set.mem Read (Set.diff a b));
  check "remove" false (Set.mem Read (Set.remove Read a));
  check "add" true (Set.mem Extend (Set.add Extend a))

let test_set_roundtrip () =
  let open Access_mode in
  List.iter
    (fun mode ->
      let s = Set.singleton mode in
      Alcotest.(check (list string))
        "to_list" [ to_string mode ]
        (List.map to_string (Set.to_list s)))
    all

(* [index] is the constructor's own representation, so its values are
   the declaration order: reordering the type moves them and fails
   here.  [all] lists the modes in that order. *)
let test_index_is_declaration_order () =
  let open Access_mode in
  Alcotest.(check (list (pair string int)))
    "index"
    [
      "read", 0; "write", 1; "write-append", 2; "administrate", 3; "delete", 4; "list", 5;
      "execute", 6; "extend", 7;
    ]
    (List.map (fun mode -> to_string mode, index mode)
       [ Read; Write; Write_append; Administrate; Delete; List; Execute; Extend ]);
  Alcotest.(check (list int)) "all" (List.init 8 Fun.id) (List.map index all)

let suite =
  [
    Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "of_string unknown" `Quick test_of_string_unknown;
    Alcotest.test_case "read/write partition" `Quick test_read_write_partition;
    Alcotest.test_case "extend is read-like" `Quick test_extend_is_read_like;
    Alcotest.test_case "set basics" `Quick test_set_basics;
    Alcotest.test_case "set algebra" `Quick test_set_algebra;
    Alcotest.test_case "set roundtrip" `Quick test_set_roundtrip;
    Alcotest.test_case "index is declaration order" `Quick test_index_is_declaration_order;
  ]
