open Exsec_core
open Exsec_extsys

(* [Exsec_extsys.Domain] (protection domains) shadows stdlib [Domain]
   (OCaml parallelism); the race tests below need the latter. *)
module Sdomain = Stdlib.Domain

let check = Alcotest.(check bool)

let boot () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let greedy = Principal.individual "greedy" in
  let modest = Principal.individual "modest" in
  List.iter (Principal.Db.add_individual db) [ admin; greedy; modest ];
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  (match
     Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/ping")
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "ping" 0 (Service.const Value.unit))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" (Service.error_to_string e));
  let bottom = Security_class.bottom hierarchy universe in
  kernel, Subject.make greedy bottom, Subject.make modest bottom, greedy, modest

let ping kernel subject =
  Kernel.call kernel ~subject ~caller:"t" (Path.of_string "/svc/ping") []

let test_unlimited_by_default () =
  let kernel, greedy_sub, _, _, _ = boot () in
  for _ = 1 to 100 do
    match ping kernel greedy_sub with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "unlimited principal refused: %s" (Service.error_to_string e)
  done

let test_call_budget () =
  let kernel, greedy_sub, modest_sub, greedy, modest = boot () in
  Quota.set (Kernel.quota kernel) greedy (Quota.calls 3);
  for _ = 1 to 3 do
    match ping kernel greedy_sub with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "within budget: %s" (Service.error_to_string e)
  done;
  (match ping kernel greedy_sub with
  | Error (Service.Quota_exceeded _) -> ()
  | _ -> Alcotest.fail "fourth call admitted");
  Alcotest.(check int) "used" 3 (Quota.calls_used (Kernel.quota kernel) greedy);
  (* Budgets are per principal. *)
  (match ping kernel modest_sub with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "other principal affected: %s" (Service.error_to_string e));
  ignore modest;
  (* Clearing restores service. *)
  Quota.clear (Kernel.quota kernel) greedy;
  match ping kernel greedy_sub with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "after clear: %s" (Service.error_to_string e)

let test_denied_attempts_still_charge () =
  (* A flood of denied requests drains the budget too: attempts are
     what a denial-of-service attack is made of. *)
  let kernel, greedy_sub, _, greedy, _ = boot () in
  Quota.set (Kernel.quota kernel) greedy (Quota.calls 2);
  (* /svc/ghost doesn't exist; both attempts still count. *)
  ignore (Kernel.call kernel ~subject:greedy_sub ~caller:"t" (Path.of_string "/svc/ghost") []);
  ignore (Kernel.call kernel ~subject:greedy_sub ~caller:"t" (Path.of_string "/svc/ghost") []);
  match ping kernel greedy_sub with
  | Error (Service.Quota_exceeded _) -> ()
  | _ -> Alcotest.fail "denied attempts were free"

let test_thread_bound () =
  let kernel, greedy_sub, _, greedy, _ = boot () in
  Quota.set (Kernel.quota kernel) greedy
    { Quota.unlimited with Quota.max_threads = Some 2 };
  let immortal () = Thread.Runnable in
  let t1 =
    match Kernel.spawn kernel ~subject:greedy_sub ~name:"a" ~body:immortal with
    | Ok thread -> thread
    | Error e -> Alcotest.failf "t1: %s" (Service.error_to_string e)
  in
  (match Kernel.spawn kernel ~subject:greedy_sub ~name:"b" ~body:immortal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "t2: %s" (Service.error_to_string e));
  (match Kernel.spawn kernel ~subject:greedy_sub ~name:"c" ~body:immortal with
  | Error (Service.Quota_exceeded _) -> ()
  | _ -> Alcotest.fail "third thread admitted");
  (* The bound is on LIVE threads: killing one frees a slot. *)
  (match Kernel.kill kernel ~subject:greedy_sub ~victim:(Thread.id t1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "kill: %s" (Service.error_to_string e));
  match Kernel.spawn kernel ~subject:greedy_sub ~name:"d" ~body:immortal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "after kill: %s" (Service.error_to_string e)

let test_extension_bound () =
  let kernel, greedy_sub, modest_sub, greedy, _ = boot () in
  Quota.set (Kernel.quota kernel) greedy
    { Quota.unlimited with Quota.max_extensions = Some 1 };
  let ext name author = Extension.make ~name ~author () in
  (match Linker.link kernel ~subject:greedy_sub (ext "one" greedy) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first: %s" (Format.asprintf "%a" Linker.pp_link_error e));
  (match Linker.link kernel ~subject:greedy_sub (ext "two" greedy) with
  | Error (Linker.Quota_refused _) -> ()
  | _ -> Alcotest.fail "second extension admitted");
  (* Unloading frees the slot. *)
  (match Linker.unload kernel ~subject:greedy_sub "one" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload: %s" (Service.error_to_string e));
  (match Linker.link kernel ~subject:greedy_sub (ext "two" greedy) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "after unload: %s" (Format.asprintf "%a" Linker.pp_link_error e));
  (* The bound charges the AUTHOR, not the loading subject. *)
  match Linker.link kernel ~subject:modest_sub (ext "three" greedy) with
  | Error (Linker.Quota_refused _) -> ()
  | _ -> Alcotest.fail "author bound evaded via another loader"

let test_handler_charges_caller () =
  (* An extension's handler runs on the caller's budget: the victim of
     an amplification loop is the caller who invoked it, never some
     third party. *)
  let kernel, greedy_sub, _, greedy, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (match
     Kernel.install_event kernel ~subject:admin_sub (Path.of_string "/svc/amplify")
       ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "event: %s" (Service.error_to_string e));
  Events.register kernel (Path.of_string "/svc/amplify")
    {
      Dispatcher.owner = "amp";
      klass = Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel);
      guard = None;
      impl =
        (fun ctx _ ->
          (* Each invocation fans out into two more pings. *)
          ignore (ctx.Service.call (Path.of_string "/svc/ping") []);
          ctx.Service.call (Path.of_string "/svc/ping") []);
    };
  Quota.set (Kernel.quota kernel) greedy (Quota.calls 5);
  (* One amplify = 1 + 2 charges; the second runs out mid-fan-out. *)
  (match Kernel.call kernel ~subject:greedy_sub ~caller:"t" (Path.of_string "/svc/amplify") [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first amplify: %s" (Service.error_to_string e));
  match Kernel.call kernel ~subject:greedy_sub ~caller:"t" (Path.of_string "/svc/amplify") [] with
  | Error (Service.Quota_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "amplification was free"
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e)

let suite =
  [
    Alcotest.test_case "unlimited by default" `Quick test_unlimited_by_default;
    Alcotest.test_case "call budget" `Quick test_call_budget;
    Alcotest.test_case "denied attempts charge" `Quick test_denied_attempts_still_charge;
    Alcotest.test_case "thread bound" `Quick test_thread_bound;
    Alcotest.test_case "extension bound" `Quick test_extension_bound;
    Alcotest.test_case "handler charges caller" `Quick test_handler_charges_caller;
  ]

let test_limits_introspection () =
  let quota = Quota.create () in
  let eve = Principal.individual "eve" in
  check "none registered" true (Quota.limits_of quota eve = None);
  Quota.set quota eve (Quota.calls 5);
  (match Quota.limits_of quota eve with
  | Some limits ->
    check "calls" true (limits.Quota.max_calls = Some 5);
    check "threads unbounded" true (limits.Quota.max_threads = None)
  | None -> Alcotest.fail "limits lost");
  (* Re-registering adjusts the budget but must not forgive what was
     already consumed; only clear-then-set starts over. *)
  (match Quota.charge_call quota eve with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first charge");
  Alcotest.(check int) "one used" 1 (Quota.calls_used quota eve);
  Quota.set quota eve (Quota.calls 5);
  Alcotest.(check int) "usage survives re-registration" 1 (Quota.calls_used quota eve);
  Quota.clear quota eve;
  Quota.set quota eve (Quota.calls 5);
  Alcotest.(check int) "clear-then-set starts over" 0 (Quota.calls_used quota eve)

(* The race the atomic CAS charge closes: the old read-modify-write on
   a plain counter let concurrent charges land on the same count, so N
   domains hammering a budget of L could be admitted more than L times
   in total. *)
let test_charge_race_never_exceeds_limit () =
  let quota = Quota.create () in
  let eve = Principal.individual "eve" in
  let limit = 1_000 in
  Quota.set quota eve (Quota.calls limit);
  let domains = 8 and attempts = 500 in
  (* 8 * 500 = 4000 attempts against a budget of 1000 *)
  let successes = Atomic.make 0 in
  let workers =
    List.init domains (fun _ ->
        Sdomain.spawn (fun () ->
            for _ = 1 to attempts do
              match Quota.charge_call quota eve with
              | Ok () -> Atomic.incr successes
              | Error _ -> ()
            done))
  in
  List.iter Sdomain.join workers;
  Alcotest.(check int) "exactly the limit is admitted" limit (Atomic.get successes);
  Alcotest.(check int) "usage equals the limit" limit (Quota.calls_used quota eve)

let test_set_during_charges_loses_nothing () =
  (* Re-registering while charges are in flight must neither tear the
     table nor forgive accrued usage: admitted = final used count. *)
  let quota = Quota.create () in
  let eve = Principal.individual "eve" in
  let limit = 10_000 in
  Quota.set quota eve (Quota.calls limit);
  let successes = Atomic.make 0 in
  let chargers =
    List.init 4 (fun _ ->
        Sdomain.spawn (fun () ->
            for _ = 1 to 1_000 do
              match Quota.charge_call quota eve with
              | Ok () -> Atomic.incr successes
              | Error _ -> ()
            done))
  in
  let setter =
    Sdomain.spawn (fun () ->
        for _ = 1 to 200 do
          Quota.set quota eve (Quota.calls limit)
        done)
  in
  List.iter Sdomain.join chargers;
  Sdomain.join setter;
  Alcotest.(check int)
    "every admitted charge is on the counter" (Atomic.get successes)
    (Quota.calls_used quota eve)

let test_zero_budget () =
  let quota = Quota.create () in
  let eve = Principal.individual "eve" in
  Quota.set quota eve (Quota.calls 0);
  match Quota.charge_call quota eve with
  | Error { Quota.resource = Quota.Calls; limit = 0; _ } -> ()
  | _ -> Alcotest.fail "zero budget admitted a call"

let suite =
  suite
  @ [
      Alcotest.test_case "limits introspection" `Quick test_limits_introspection;
      Alcotest.test_case "charge race never exceeds limit" `Quick
        test_charge_race_never_exceeds_limit;
      Alcotest.test_case "set during charges loses nothing" `Quick
        test_set_during_charges_loses_nothing;
      Alcotest.test_case "zero budget" `Quick test_zero_budget;
    ]
