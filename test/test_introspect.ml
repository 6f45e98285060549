open Exsec_core
open Exsec_extsys
open Exsec_services

let check = Alcotest.(check bool)

let boot () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  List.iter (Principal.Db.add_individual db) [ admin; alice ];
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  (match Introspect.install kernel ~subject:(Kernel.admin_subject kernel) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %s" (Service.error_to_string e));
  kernel, admin, alice

let cls kernel level =
  Security_class.make
    (Level.of_name_exn (Kernel.hierarchy kernel) level)
    (Category.empty (Kernel.universe kernel))

let call kernel subject name args =
  Kernel.call kernel ~subject ~caller:"test" (Path.of_string ("/svc/introspect/" ^ name)) args

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Service.error_to_string e)

let test_extensions_listing () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  (match call kernel alice_sub "extensions" [] with
  | Ok (Value.List []) -> ()
  | _ -> Alcotest.fail "expected empty list");
  let ext = Extension.make ~name:"probe" ~author:alice () in
  (match Linker.link kernel ~subject:alice_sub ext with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "link: %s" (Format.asprintf "%a" Linker.pp_link_error e));
  match call kernel alice_sub "extensions" [] with
  | Ok (Value.List [ Value.Str "probe" ]) -> ()
  | _ -> Alcotest.fail "expected [probe]"

let test_threads_listing () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  let _ =
    ok "spawn"
      (Kernel.spawn kernel ~subject:alice_sub ~name:"worker" ~body:(fun () -> Thread.Runnable))
  in
  match call kernel alice_sub "threads" [] with
  | Ok (Value.List [ Value.Pair (Value.Int _, Value.Str "worker") ]) -> ()
  | Ok other -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Value.pp other)
  | Error e -> Alcotest.failf "threads: %s" (Service.error_to_string e)

let test_audit_totals_world_readable () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  match call kernel alice_sub "audit_totals" [] with
  | Ok (Value.Pair (Value.Int granted, Value.Int denied)) ->
    check "some grants recorded" true (granted > 0);
    check "non-negative" true (denied >= 0)
  | _ -> Alcotest.fail "audit_totals"

let test_audit_tail_classified () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  (* A low subject can see the counters but not the trail. *)
  (match call kernel alice_sub "audit_tail" [ Value.int 4 ] with
  | Error (Service.Denied _) -> ()
  | _ -> Alcotest.fail "low subject read the audit trail");
  match call kernel (Kernel.admin_subject kernel) "audit_tail" [ Value.int 4 ] with
  | Ok (Value.List events) ->
    check "some events" true (List.length events > 0);
    check "at most 4" true (List.length events <= 4)
  | Ok _ | Error _ -> Alcotest.fail "admin could not read the trail"

let test_namespace_size () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  match call kernel alice_sub "namespace_size" [] with
  | Ok (Value.Int n) ->
    (* root + 3 std dirs + introspect dir + 9 procs = 14 *)
    Alcotest.(check int) "node count" 14 n
  | _ -> Alcotest.fail "namespace_size"

let test_audit_tail_matches_events () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  (* Generate a little traffic, then check the proc's tail agrees with
     the full event list. *)
  let _ = call kernel alice_sub "namespace_size" [] in
  let audit = Reference_monitor.audit (Kernel.monitor kernel) in
  let events = Audit.events audit in
  let tail = Audit.tail audit ~count:3 in
  let expected =
    let n = List.length events in
    List.filteri (fun i _ -> i >= n - 3) events
  in
  check "tail is the newest suffix of events" true (tail = expected);
  check "negative count is clamped" true (Audit.tail audit ~count:(-5) = []);
  match call kernel (Kernel.admin_subject kernel) "audit_tail" [ Value.int (-5) ] with
  | Ok (Value.List []) -> ()
  | _ -> Alcotest.fail "negative audit_tail count should clamp to empty"

let test_metrics_proc () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  Exsec_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Exsec_obs.Metrics.set_enabled false;
      Exsec_obs.Metrics.reset ())
    (fun () ->
      (* Drive one call through the kernel so the counters move. *)
      let _ = call kernel alice_sub "namespace_size" [] in
      match call kernel alice_sub "metrics" [] with
      | Ok (Value.List (Value.Pair (Value.Str "enabled", Value.Int 1) :: rest)) ->
        let names =
          List.filter_map
            (function Value.Pair (Value.Str name, Value.Int _) -> Some name | _ -> None)
            rest
        in
        check "all entries are (name, int) pairs" true
          (List.length names = List.length rest);
        check "kernel.calls exported" true (List.mem "kernel.calls" names);
        check "decision histogram flattened" true
          (List.mem "monitor.decide_ns.count" names)
      | Ok other -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Value.pp other)
      | Error e -> Alcotest.failf "metrics: %s" (Service.error_to_string e))

let test_trace_tail_proc () =
  let kernel, _, alice = boot () in
  let alice_sub = Subject.make alice (cls kernel "lo") in
  Exsec_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Exsec_obs.Trace.set_enabled false;
      Exsec_obs.Trace.clear ())
    (fun () ->
      let _ = call kernel alice_sub "namespace_size" [] in
      (* Traces carry everyone's call paths: classified like the audit
         trail, so a low subject is refused. *)
      (match call kernel alice_sub "trace_tail" [ Value.int 4 ] with
      | Error (Service.Denied _) -> ()
      | _ -> Alcotest.fail "low subject read the trace ring");
      match call kernel (Kernel.admin_subject kernel) "trace_tail" [ Value.int 8 ] with
      | Ok (Value.List lines) ->
        check "some spans" true (lines <> []);
        check "kernel.call span present" true
          (List.exists
             (function Value.Str line -> String.length line > 0 | _ -> false)
             lines)
      | Ok other -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Value.pp other)
      | Error e -> Alcotest.failf "trace_tail: %s" (Service.error_to_string e))

let suite =
  [
    Alcotest.test_case "extensions listing" `Quick test_extensions_listing;
    Alcotest.test_case "threads listing" `Quick test_threads_listing;
    Alcotest.test_case "audit totals world-readable" `Quick test_audit_totals_world_readable;
    Alcotest.test_case "audit tail classified" `Quick test_audit_tail_classified;
    Alcotest.test_case "namespace size" `Quick test_namespace_size;
    Alcotest.test_case "audit tail matches events" `Quick test_audit_tail_matches_events;
    Alcotest.test_case "metrics proc" `Quick test_metrics_proc;
    Alcotest.test_case "trace_tail proc" `Quick test_trace_tail_proc;
  ]
