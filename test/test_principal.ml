open Exsec_core

let check = Alcotest.(check bool)

let test_empty_names_rejected () =
  Alcotest.check_raises "individual" (Invalid_argument "Principal.individual: empty name")
    (fun () -> ignore (Principal.individual ""));
  Alcotest.check_raises "group" (Invalid_argument "Principal.group: empty name") (fun () ->
      ignore (Principal.group ""))

let test_direct_membership () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let staff = Principal.group "staff" in
  Principal.Db.add_member db staff (Principal.Ind alice);
  check "alice in staff" true (Principal.Db.is_member db alice staff);
  check "bob not in staff" false
    (Principal.Db.is_member db (Principal.individual "bob") staff)

let test_nested_membership () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let eng = Principal.group "eng" in
  let staff = Principal.group "staff" in
  Principal.Db.add_member db eng (Principal.Ind alice);
  Principal.Db.add_member db staff (Principal.Grp eng);
  check "transitive" true (Principal.Db.is_member db alice staff);
  Alcotest.(check int) "groups_of" 2 (List.length (Principal.Db.groups_of db alice))

let test_cycle_rejected () =
  let db = Principal.Db.create () in
  let a = Principal.group "a" in
  let b = Principal.group "b" in
  Principal.Db.add_member db a (Principal.Grp b);
  (match Principal.Db.add_member db b (Principal.Grp a) with
  | () -> Alcotest.fail "cycle accepted"
  | exception Invalid_argument _ -> ());
  (* Self-membership is also a cycle. *)
  match Principal.Db.add_member db a (Principal.Grp a) with
  | () -> Alcotest.fail "self-cycle accepted"
  | exception Invalid_argument _ -> ()

let test_rejected_cycle_leaves_db_untouched () =
  (* add_member must validate before mutating: a rejected insertion
     may not register the nested group, touch any member list, or
     bump the generation (a half-applied update would silently
     invalidate every compiled ACL). *)
  let db = Principal.Db.create () in
  let a = Principal.group "a" in
  let b = Principal.group "b" in
  Principal.Db.add_member db a (Principal.Grp b);
  let groups_before = List.map Principal.group_name (Principal.Db.groups db) in
  let members_before = Principal.Db.direct_members db b in
  let generation_before = Principal.Db.generation db in
  (match Principal.Db.add_member db b (Principal.Grp a) with
  | () -> Alcotest.fail "cycle accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list string))
    "no group registered by the rejected insert" groups_before
    (List.map Principal.group_name (Principal.Db.groups db));
  Alcotest.(check int)
    "b's members untouched"
    (List.length members_before)
    (List.length (Principal.Db.direct_members db b));
  Alcotest.(check int) "generation untouched" generation_before
    (Principal.Db.generation db);
  (* A rejected self-cycle on a group the db has never seen must not
     register that group on the way out. *)
  let fresh = Principal.group "fresh" in
  let groups_before = List.map Principal.group_name (Principal.Db.groups db) in
  let generation_before = Principal.Db.generation db in
  (match Principal.Db.add_member db fresh (Principal.Grp fresh) with
  | () -> Alcotest.fail "self-cycle accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list string))
    "unknown group not registered by the rejection" groups_before
    (List.map Principal.group_name (Principal.Db.groups db));
  Alcotest.(check int) "generation still untouched" generation_before
    (Principal.Db.generation db)

let test_add_member_idempotent () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let staff = Principal.group "staff" in
  Principal.Db.add_member db staff (Principal.Ind alice);
  Principal.Db.add_member db staff (Principal.Ind alice);
  Alcotest.(check int) "one entry" 1 (List.length (Principal.Db.direct_members db staff))

let test_remove_member () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let staff = Principal.group "staff" in
  Principal.Db.add_member db staff (Principal.Ind alice);
  Principal.Db.remove_member db staff (Principal.Ind alice);
  check "removed" false (Principal.Db.is_member db alice staff);
  (* Removing again is harmless. *)
  Principal.Db.remove_member db staff (Principal.Ind alice);
  check "still removed" false (Principal.Db.is_member db alice staff)

let test_listing_sorted () =
  let db = Principal.Db.create () in
  List.iter
    (fun name -> Principal.Db.add_individual db (Principal.individual name))
    [ "zoe"; "alice"; "mike" ];
  Alcotest.(check (list string))
    "sorted" [ "alice"; "mike"; "zoe" ]
    (List.map Principal.individual_name (Principal.Db.individuals db))

let test_deep_nesting () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let deepest = Principal.group "g0" in
  Principal.Db.add_member db deepest (Principal.Ind alice);
  let top =
    List.fold_left
      (fun inner i ->
        let outer = Principal.group (Printf.sprintf "g%d" i) in
        Principal.Db.add_member db outer (Principal.Grp inner);
        outer)
      deepest
      (List.init 20 (fun i -> i + 1))
  in
  check "20 levels deep" true (Principal.Db.is_member db alice top)

(* {1 The name tables}

   A script registers individuals and groups from a pool of names,
   repeats included, and looks names up, present and absent, through
   several growths of each table (its first holds 16 names).  The model
   is a map per kind: a new name takes the map's size as its id. *)

module Names = Map.Make (String)

type name_op =
  | Register of bool * int  (* group?, pool index *)
  | Lookup of bool * int

let pool = Array.init 300 (Printf.sprintf "n%03d")

let arb_name_ops =
  QCheck.(
    list_of_size (Gen.int_range 0 700)
      (map
         (fun (register, group, k) -> if register then Register (group, k) else Lookup (group, k))
         (triple bool bool (int_bound (Array.length pool - 1)))))

let prop_name_table =
  QCheck.Test.make ~name:"name tables = a map per kind: dense ids in registration order"
    ~count:100 arb_name_ops (fun ops ->
      let db = Principal.Db.create () in
      let snap = Principal.Db.snapshot db in
      let models = [| Names.empty; Names.empty |] in
      let kind group = if group then 1 else 0 in
      let id group name =
        if group then Principal.Db.Snapshot.group_id snap (Principal.group name)
        else Principal.Db.Snapshot.individual_id snap (Principal.individual name)
      in
      let expect group name =
        Option.value ~default:(-1) (Names.find_opt name models.(kind group))
      in
      let agrees group name =
        id group name = expect group name
        || QCheck.Test.fail_reportf "%s %s: id %d, model %d"
             (if group then "group" else "individual")
             name (id group name) (expect group name)
      in
      List.iter
        (function
          | Register (group, k) ->
            let name = pool.(k) in
            if group then Principal.Db.add_group db (Principal.group name)
            else Principal.Db.add_individual db (Principal.individual name);
            let model = models.(kind group) in
            if not (Names.mem name model) then
              models.(kind group) <- Names.add name (Names.cardinal model) model;
            ignore (agrees group name)
          | Lookup (group, k) ->
            ignore (agrees group pool.(k) && agrees group ("absent-" ^ pool.(k))))
        ops;
      Array.for_all (fun name -> agrees false name && agrees true name) pool
      && Principal.Db.individual_count db = Names.cardinal models.(0)
      && Principal.Db.Snapshot.registered_individuals snap = Names.cardinal models.(0)
      && List.map Principal.individual_name (Principal.Db.individuals db)
         = List.map fst (Names.bindings models.(0))
      && List.map Principal.group_name (Principal.Db.groups db)
         = List.map fst (Names.bindings models.(1)))

let test_lookup_allocates_nothing () =
  (* A hit and a miss in each table, past the tables' first growths:
     a miss answers -1 without raising or allocating. *)
  let db = Principal.Db.create () in
  for i = 0 to 99 do
    Principal.Db.add_individual db (Principal.individual (Printf.sprintf "u%d" i));
    Principal.Db.add_group db (Principal.group (Printf.sprintf "g%d" i))
  done;
  let snap = Principal.Db.snapshot db in
  let hit_ind = Principal.individual "u42" and miss_ind = Principal.individual "nobody" in
  let hit_grp = Principal.group "g42" and miss_grp = Principal.group "nowhere" in
  Alcotest.(check int) "missing individual" (-1)
    (Principal.Db.Snapshot.individual_id snap miss_ind);
  Alcotest.(check int) "missing group" (-1) (Principal.Db.Snapshot.group_id snap miss_grp);
  let run () =
    for _ = 1 to 10_000 do
      ignore (Principal.Db.Snapshot.individual_id snap hit_ind);
      ignore (Principal.Db.Snapshot.individual_id snap miss_ind);
      ignore (Principal.Db.Snapshot.group_id snap hit_grp);
      ignore (Principal.Db.Snapshot.group_id snap miss_grp)
    done
  in
  run ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = words (fun () -> ()) in
  Alcotest.(check (float 0.)) "lookup words" baseline (words run)

let suite =
  [
    Alcotest.test_case "empty names rejected" `Quick test_empty_names_rejected;
    Alcotest.test_case "direct membership" `Quick test_direct_membership;
    Alcotest.test_case "nested membership" `Quick test_nested_membership;
    Alcotest.test_case "cycles rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "rejected cycle leaves db untouched" `Quick
      test_rejected_cycle_leaves_db_untouched;
    Alcotest.test_case "add idempotent" `Quick test_add_member_idempotent;
    Alcotest.test_case "remove member" `Quick test_remove_member;
    Alcotest.test_case "listing sorted" `Quick test_listing_sorted;
    Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
    QCheck_alcotest.to_alcotest prop_name_table;
    Alcotest.test_case "an id lookup allocates nothing" `Quick test_lookup_allocates_nothing;
  ]
