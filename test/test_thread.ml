open Exsec_core
open Exsec_extsys

let check = Alcotest.(check bool)

let hierarchy = Level.hierarchy [ "hi"; "lo" ]
let universe = Category.universe []
let bottom = Security_class.bottom hierarchy universe
let alice = Principal.individual "alice"

let make_thread ?(id = 0) body =
  Thread.make ~id ~name:(Printf.sprintf "t%d" id)
    ~subject:(Subject.make alice bottom)
    ~body

let test_lifecycle () =
  let steps = ref 0 in
  let t =
    make_thread (fun () ->
        incr steps;
        if !steps >= 2 then Thread.Finished else Thread.Runnable)
  in
  check "starts ready" true (Thread.state t = Thread.Ready);
  check "alive" true (Thread.is_alive t);
  Thread.step t;
  check "still ready" true (Thread.state t = Thread.Ready);
  Thread.step t;
  check "done" true (Thread.state t = Thread.Done);
  check "not alive" false (Thread.is_alive t);
  Alcotest.(check int) "quanta" 2 (Thread.quanta t);
  (* Stepping a finished thread is a no-op. *)
  Thread.step t;
  Alcotest.(check int) "no extra quanta" 2 (Thread.quanta t)

let test_kill () =
  let t = make_thread (fun () -> Thread.Runnable) in
  Thread.kill t;
  check "killed" true (Thread.state t = Thread.Killed);
  Thread.step t;
  Alcotest.(check int) "no quanta after kill" 0 (Thread.quanta t);
  (* Killing twice is harmless; killing a finished thread is too. *)
  Thread.kill t;
  check "still killed" true (Thread.state t = Thread.Killed)

let test_round_robin_fairness () =
  let sched = Sched.create () in
  let order = ref [] in
  let mk id =
    let count = ref 0 in
    make_thread ~id (fun () ->
        order := id :: !order;
        incr count;
        if !count >= 2 then Thread.Finished else Thread.Runnable)
  in
  Sched.add sched (mk 1);
  Sched.add sched (mk 2);
  Sched.add sched (mk 3);
  let quanta = Sched.run sched in
  Alcotest.(check int) "six quanta" 6 quanta;
  Alcotest.(check (list int)) "interleaved" [ 1; 2; 3; 1; 2; 3 ] (List.rev !order)

let test_run_budget () =
  let sched = Sched.create () in
  Sched.add sched (make_thread (fun () -> Thread.Runnable));
  let quanta = Sched.run ~max_quanta:50 sched in
  Alcotest.(check int) "budget respected" 50 quanta;
  check "still alive" true (List.length (Sched.alive sched) = 1)

let test_find_and_kill_mid_run () =
  let sched = Sched.create () in
  let t1 = make_thread ~id:1 (fun () -> Thread.Runnable) in
  let seen = ref 0 in
  let t2 =
    make_thread ~id:2 (fun () ->
        incr seen;
        if !seen >= 3 then Thread.Finished else Thread.Runnable)
  in
  Sched.add sched t1;
  Sched.add sched t2;
  (match Sched.find sched 1 with
  | Some t when t == t1 -> ()
  | Some _ | None -> Alcotest.fail "find returned the wrong thread");
  check "find missing" true (Sched.find sched 9 = None);
  (* Kill the immortal one; the scheduler should then drain. *)
  Thread.kill t1;
  let _ = Sched.run sched in
  check "t2 done" true (Thread.state t2 = Thread.Done);
  Alcotest.(check int) "no live threads" 0 (List.length (Sched.alive sched))

(* Regression: the old cursor indexed into the *live* list
   ([List.nth live (cursor mod count)]), so a thread finishing or
   dying mid-rotation shifted every later thread's index — some got
   skipped, some served twice.  Positions are stable now: every live
   thread must be stepped exactly once per rotation however the
   population churns. *)
let test_fairness_under_churn () =
  let sched = Sched.create () in
  let order = ref [] in
  let immortal id =
    make_thread ~id (fun () ->
        order := id :: !order;
        Thread.Runnable)
  in
  (* Thread 2 finishes on its first quantum, mid-rotation. *)
  let one_shot id =
    make_thread ~id (fun () ->
        order := id :: !order;
        Thread.Finished)
  in
  Sched.add sched (immortal 1);
  Sched.add sched (one_shot 2);
  Sched.add sched (immortal 3);
  Sched.add sched (immortal 4);
  for _ = 1 to 7 do
    ignore (Sched.step sched)
  done;
  (* Rotation one serves 1 2 3 4; thread 2 is then gone, and rotation
     two serves exactly the three survivors, none skipped or doubled. *)
  Alcotest.(check (list int)) "churn keeps the rotation exact"
    [ 1; 2; 3; 4; 1; 3; 4 ] (List.rev !order)

let test_fairness_after_kill_mid_rotation () =
  let sched = Sched.create () in
  let order = ref [] in
  let immortal id =
    make_thread ~id (fun () ->
        order := id :: !order;
        Thread.Runnable)
  in
  let t1 = immortal 1 in
  Sched.add sched t1;
  Sched.add sched (immortal 2);
  Sched.add sched (immortal 3);
  ignore (Sched.step sched);
  (* Kill the thread the cursor just passed: with the old live-list
     indexing the shrunken list made the cursor skip thread 2. *)
  Thread.kill t1;
  ignore (Sched.step sched);
  ignore (Sched.step sched);
  Alcotest.(check (list int)) "no skip after mid-rotation kill" [ 1; 2; 3 ]
    (List.rev !order);
  (* And the survivors keep alternating. *)
  ignore (Sched.step sched);
  ignore (Sched.step sched);
  Alcotest.(check (list int)) "survivors alternate" [ 1; 2; 3; 2; 3 ]
    (List.rev !order)

let test_empty_sched () =
  let sched = Sched.create () in
  check "no step" false (Sched.step sched);
  Alcotest.(check int) "zero quanta" 0 (Sched.run sched)

let suite =
  [
    Alcotest.test_case "lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "kill" `Quick test_kill;
    Alcotest.test_case "round robin" `Quick test_round_robin_fairness;
    Alcotest.test_case "run budget" `Quick test_run_budget;
    Alcotest.test_case "kill mid run" `Quick test_find_and_kill_mid_run;
    Alcotest.test_case "fairness under churn" `Quick test_fairness_under_churn;
    Alcotest.test_case "fairness after mid-rotation kill" `Quick
      test_fairness_after_kill_mid_rotation;
    Alcotest.test_case "empty scheduler" `Quick test_empty_sched;
  ]
