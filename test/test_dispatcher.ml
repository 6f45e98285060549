open Exsec_core
open Exsec_extsys

let check = Alcotest.(check bool)

let hierarchy = Level.hierarchy [ "local"; "org"; "outside" ]
let universe = Category.universe [ "d1"; "d2" ]

let cls level cats =
  Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats)

let handler ?guard owner klass tag =
  {
    Dispatcher.owner;
    klass;
    guard;
    impl = (fun _ctx _args -> Ok (Value.str tag));
  }

(* [Dispatcher.select] as an option, for the checks below. *)
let select d ~caller_class ~args =
  match Dispatcher.select d ~caller_class ~args with
  | h -> Some h
  | exception Not_found -> None

let run_handler = function
  | Some h -> (
    let fake_ctx =
      {
        Service.subject = Subject.make (Principal.individual "x") (cls "local" []);
        caller = "test";
        call = (fun _ _ -> Error (Service.Ext_failure "no"));
      }
    in
    match h.Dispatcher.impl fake_ctx [] with
    | Ok (Value.Str tag) -> Some tag
    | _ -> None)
  | None -> None

let test_selection_by_class () =
  let d = Dispatcher.create () in
  Dispatcher.register d (handler "ext-local" (cls "local" []) "local");
  Dispatcher.register d (handler "ext-org" (cls "org" []) "org");
  Dispatcher.register d (handler "ext-out" (cls "outside" []) "out");
  (* A local caller dominates all three; the most specific (its own
     level) wins. *)
  Alcotest.(check (option string)) "local caller" (Some "local")
    (run_handler (select d ~caller_class:(cls "local" []) ~args:[]));
  Alcotest.(check (option string)) "org caller" (Some "org")
    (run_handler (select d ~caller_class:(cls "org" []) ~args:[]));
  Alcotest.(check (option string)) "outside caller" (Some "out")
    (run_handler (select d ~caller_class:(cls "outside" []) ~args:[]))

let test_no_eligible_handler () =
  let d = Dispatcher.create () in
  Dispatcher.register d (handler "ext-local" (cls "local" []) "local");
  (* An outside caller dominates nothing registered. *)
  check "none" true (select d ~caller_class:(cls "outside" []) ~args:[] = None);
  check "empty set" true
    (select (Dispatcher.create ()) ~caller_class:(cls "local" []) ~args:[] = None)

let test_guard_filters () =
  let d = Dispatcher.create () in
  let is_one args = match args with [ Value.Int 1 ] -> true | _ -> false in
  Dispatcher.register d (handler ~guard:is_one "guarded" (cls "org" []) "one");
  Dispatcher.register d (handler "fallback" (cls "org" []) "any");
  Alcotest.(check (option string)) "guard match" (Some "one")
    (run_handler (select d ~caller_class:(cls "org" []) ~args:[ Value.int 1 ]));
  Alcotest.(check (option string)) "guard miss" (Some "any")
    (run_handler (select d ~caller_class:(cls "org" []) ~args:[ Value.int 2 ]))

let test_registration_order_breaks_ties () =
  let d = Dispatcher.create () in
  Dispatcher.register d (handler "first" (cls "org" []) "first");
  Dispatcher.register d (handler "second" (cls "org" []) "second");
  Alcotest.(check (option string)) "first registered wins" (Some "first")
    (run_handler (select d ~caller_class:(cls "local" []) ~args:[]))

let test_select_all_ordering () =
  let d = Dispatcher.create () in
  Dispatcher.register d (handler "out" (cls "outside" []) "out");
  Dispatcher.register d (handler "local" (cls "local" [ "d1" ]) "local");
  Dispatcher.register d (handler "org" (cls "org" [ "d1" ]) "org");
  let all =
    Dispatcher.select_all d ~caller_class:(cls "local" [ "d1"; "d2" ]) ~args:[]
  in
  Alcotest.(check (list string)) "most specific first" [ "local"; "org"; "out" ]
    (List.map (fun h -> h.Dispatcher.owner) all)

let test_unregister_owner () =
  let d = Dispatcher.create () and other = Dispatcher.create () in
  Dispatcher.register d (handler "doomed" (cls "org" []) "a");
  Dispatcher.register d (handler "stays" (cls "org" []) "b");
  Dispatcher.register other (handler "doomed" (cls "org" []) "c");
  let owners () =
    List.map (fun h -> h.Dispatcher.owner) (Dispatcher.handlers d @ Dispatcher.handlers other)
  in
  Alcotest.(check int) "three registered" 3 (List.length (owners ()));
  List.iter (fun set -> Dispatcher.unregister_owner set "doomed") [ d; other ];
  Alcotest.(check int) "one left" 1 (List.length (owners ()));
  Alcotest.(check (list string)) "doomed gone from both sets" [ "stays" ] (owners ())

let test_incomparable_classes () =
  let d = Dispatcher.create () in
  Dispatcher.register d (handler "d1" (cls "org" [ "d1" ]) "d1");
  Dispatcher.register d (handler "d2" (cls "org" [ "d2" ]) "d2");
  (* A d2-only caller cannot reach the d1 handler. *)
  Alcotest.(check (option string)) "d2 caller" (Some "d2")
    (run_handler (select d ~caller_class:(cls "org" [ "d2" ]) ~args:[]));
  (* A caller with both sees both; registration order breaks the
     incomparable tie. *)
  Alcotest.(check (option string)) "merged caller" (Some "d1")
    (run_handler (select d ~caller_class:(cls "org" [ "d1"; "d2" ]) ~args:[]))

(* Same discipline as the compiled-ACL pin: the boxes [Gc.minor_words]
   itself allocates are identical between the empty baseline and the
   measured run, so equal deltas mean the loop allocated nothing.  Eight
   guard-less handlers at three levels, as in the ext_calls workload. *)
let test_select_allocates_nothing () =
  let d = Dispatcher.create () in
  List.iteri
    (fun i level -> Dispatcher.register d (handler (Printf.sprintf "h%d" i) (cls level []) "t"))
    [ "outside"; "outside"; "outside"; "org"; "org"; "org"; "local"; "local" ];
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    let after = Gc.minor_words () in
    after -. before
  in
  List.iter
    (fun level ->
      let caller_class = cls level [] in
      let run () =
        for _ = 1 to 10_000 do
          ignore (Dispatcher.select d ~caller_class ~args:[])
        done
      in
      run ();
      let baseline = minor_delta (fun () -> ()) in
      let measured = minor_delta run in
      Alcotest.(check (float 0.)) (level ^ " caller words") baseline measured)
    [ "local"; "org"; "outside" ]

let suite =
  [
    Alcotest.test_case "selection by class" `Quick test_selection_by_class;
    Alcotest.test_case "no eligible handler" `Quick test_no_eligible_handler;
    Alcotest.test_case "guards" `Quick test_guard_filters;
    Alcotest.test_case "tie by registration order" `Quick test_registration_order_breaks_ties;
    Alcotest.test_case "select_all ordering" `Quick test_select_all_ordering;
    Alcotest.test_case "unregister owner" `Quick test_unregister_owner;
    Alcotest.test_case "incomparable classes" `Quick test_incomparable_classes;
    Alcotest.test_case "select allocates nothing" `Quick test_select_allocates_nothing;
  ]

(* {1 Properties}

   Random handler sets over 4 levels x 2 categories, at most 8
   handlers, each one registered under a distinct owner name. *)

let prop_hierarchy = Level.hierarchy [ "l3"; "l2"; "l1"; "l0" ]
let prop_universe = Category.universe [ "x"; "y" ]

let mk_class (level_ix, x, y) =
  let level = Level.of_name_exn prop_hierarchy (Printf.sprintf "l%d" level_ix) in
  let cats = List.concat [ (if x then [ "x" ] else []); (if y then [ "y" ] else []) ] in
  Security_class.make level (Category.of_names prop_universe cats)

let klass_gen = QCheck.Gen.(triple (int_range 0 3) bool bool)
let handlers_gen = QCheck.Gen.(list_size (int_range 0 8) klass_gen)

let set_of named_specs =
  let d = Dispatcher.create () in
  List.iter
    (fun (owner, spec) -> Dispatcher.register d (handler owner (mk_class spec) "t"))
    named_specs;
  d

let named prefix specs = List.mapi (fun i spec -> Printf.sprintf "%s%d" prefix i, spec) specs

(* Property: select returns an *eligible* handler (caller dominates
   its class, guard passes) that is *maximal* among eligible handlers
   (no eligible handler strictly dominates it). *)
let prop_select_eligible_and_maximal =
  let arb = QCheck.make QCheck.Gen.(pair klass_gen handlers_gen) in
  QCheck.Test.make ~name:"select is eligible and maximal" ~count:300 arb
    (fun (caller_spec, handler_specs) ->
      let d = set_of (named "h" handler_specs) in
      let caller_class = mk_class caller_spec in
      let eligible =
        List.filter
          (fun h -> Security_class.dominates caller_class h.Dispatcher.klass)
          (Dispatcher.handlers d)
      in
      match select d ~caller_class ~args:[] with
      | None -> eligible = []
      | Some best ->
        List.exists (fun h -> h == best) eligible
        && List.for_all
             (fun h ->
               not
                 (Security_class.dominates h.Dispatcher.klass best.Dispatcher.klass
                 && not (Security_class.equal h.Dispatcher.klass best.Dispatcher.klass)))
             eligible)

(* Property: a raise and a broadcast agree on "the right extension". *)
let prop_select_heads_select_all =
  let arb = QCheck.make QCheck.Gen.(pair klass_gen handlers_gen) in
  QCheck.Test.make ~name:"select is the head of select_all" ~count:300 arb
    (fun (caller_spec, handler_specs) ->
      let d = set_of (named "h" handler_specs) in
      let caller_class = mk_class caller_spec in
      match select d ~caller_class ~args:[], Dispatcher.select_all d ~caller_class ~args:[] with
      | None, [] -> true
      | Some best, first :: _ -> best == first
      | Some _, [] | None, _ :: _ -> false)

(* Property: handlers the caller does not dominate, registered anywhere
   among the others, change neither what it is dispatched to nor its
   broadcast order — no channel from invisible handlers to visible
   behaviour. *)
let prop_invisible_handlers_change_nothing =
  let arb =
    QCheck.make
      QCheck.Gen.(triple klass_gen handlers_gen (list_size (int_range 0 8) (pair klass_gen nat)))
  in
  QCheck.Test.make ~name:"invisible handlers change nothing" ~count:300 arb
    (fun (caller_spec, handler_specs, extra_specs) ->
      let caller_class = mk_class caller_spec in
      let base = named "h" handler_specs in
      let invisible =
        List.filter
          (fun (_, (spec, _)) -> not (Security_class.dominates caller_class (mk_class spec)))
          (named "x" extra_specs)
      in
      (* Each invisible handler goes in at its own position of the
         registration sequence. *)
      let mixed =
        List.fold_left
          (fun seq (owner, (spec, at)) ->
            let at = at mod (List.length seq + 1) in
            List.filteri (fun i _ -> i < at) seq
            @ ((owner, spec) :: List.filteri (fun i _ -> i >= at) seq))
          base invisible
      in
      let owners d =
        ( Option.map (fun h -> h.Dispatcher.owner) (select d ~caller_class ~args:[]),
          List.map (fun h -> h.Dispatcher.owner) (Dispatcher.select_all d ~caller_class ~args:[]) )
      in
      owners (set_of base) = owners (set_of mixed))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_select_eligible_and_maximal;
        prop_select_heads_select_all;
        prop_invisible_handlers_change_nothing;
      ]
