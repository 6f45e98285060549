open Exsec_core
open Exsec_extsys

let check = Alcotest.(check bool)

let boot () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let eve = Principal.individual "eve" in
  List.iter (Principal.Db.add_individual db) [ admin; alice; eve ];
  let hierarchy = Level.hierarchy [ "local"; "org"; "outside" ] in
  let universe = Category.universe [ "d1"; "d2" ] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  kernel, admin, alice, eve

let cls kernel level cats =
  Security_class.make
    (Level.of_name_exn (Kernel.hierarchy kernel) level)
    (Category.of_names (Kernel.universe kernel) cats)

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Service.error_to_string e)

let test_boot_layout () =
  let kernel, _, _, _ = boot () in
  let ns = Kernel.namespace kernel in
  List.iter
    (fun name -> check name true (Namespace.mem ns (Path.of_string name)))
    [ "/svc"; "/ext"; "/threads" ];
  Alcotest.(check int) "node count" 4 (Namespace.size ns)

let test_install_and_call_proc () =
  let kernel, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let double =
    Service.proc "double" 1 (fun _ctx args ->
        Ok (Value.int (2 * Value.to_int_exn (List.hd args))))
  in
  let meta = Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) () in
  let () = ok "dir" (Kernel.add_dir kernel ~subject:admin_sub (Path.of_string "/svc/math") ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())) in
  let () = ok "install" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/math/double") ~meta double) in
  let alice_sub = Subject.make alice (cls kernel "org" [ "d1" ]) in
  let result = ok "call" (Kernel.call kernel ~subject:alice_sub ~caller:"test" (Path.of_string "/svc/math/double") [ Value.int 21 ]) in
  check "result" true (Value.equal result (Value.int 42))

let test_call_checks_execute () =
  let kernel, admin, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* A procedure only admin may call. *)
  let secret = Service.proc "secret" 0 (Service.const Value.unit) in
  let meta =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel))
  in
  let () = ok "install" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/secret") ~meta secret) in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  match Kernel.call kernel ~subject:alice_sub ~caller:"test" (Path.of_string "/svc/secret") [] with
  | Error (Service.Denied { mode = Access_mode.Execute; _ }) -> ()
  | _ -> Alcotest.fail "expected execute denial"

let test_mac_gates_calls () =
  let kernel, admin, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* A service classified high: low callers cannot even execute it
     (execute is read-like). *)
  let meta =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ])
      (cls kernel "local" [])
  in
  let () = ok "install" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/high") ~meta (Service.proc "high" 0 (Service.const Value.unit))) in
  let low = Subject.make alice (cls kernel "outside" []) in
  let high = Subject.make alice (cls kernel "local" []) in
  (match Kernel.call kernel ~subject:low ~caller:"t" (Path.of_string "/svc/high") [] with
  | Error (Service.Denied { denial = Decision.Mac_denied Mac.Read_up; _ }) -> ()
  | _ -> Alcotest.fail "expected MAC read-up");
  let _ = ok "high calls" (Kernel.call kernel ~subject:high ~caller:"t" (Path.of_string "/svc/high") []) in
  ()

let test_arity_checked () =
  let kernel, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let meta = Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) () in
  let () = ok "install" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/one") ~meta (Service.proc "one" 1 (Service.const Value.unit))) in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  match Kernel.call kernel ~subject:alice_sub ~caller:"t" (Path.of_string "/svc/one") [] with
  | Error (Service.Bad_arity { expected = 1; got = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_call_not_callable () =
  let kernel, _, alice, _ = boot () in
  (* Even with every right, a directory is not callable. *)
  (match Kernel.call kernel ~subject:(Kernel.admin_subject kernel) ~caller:"t" (Path.of_string "/svc") [] with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "called a directory");
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  match Kernel.call kernel ~subject:alice_sub ~caller:"t" (Path.of_string "/svc/ghost") [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "called a ghost"

let test_events_dispatch_by_class () =
  let kernel, _, alice, eve = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let event = Path.of_string "/svc/render" in
  let () = ok "event" (Kernel.install_event kernel ~subject:admin_sub event ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())) in
  Events.register kernel event
    { Dispatcher.owner = "fancy"; klass = cls kernel "local" []; guard = None;
      impl = (fun _ _ -> Ok (Value.str "fancy")) };
  Events.register kernel event
    { Dispatcher.owner = "plain"; klass = cls kernel "outside" []; guard = None;
      impl = (fun _ _ -> Ok (Value.str "plain")) };
  let local_sub = Subject.make alice (cls kernel "local" []) in
  let out_sub = Subject.make eve (cls kernel "outside" []) in
  let r1 = ok "local" (Kernel.call kernel ~subject:local_sub ~caller:"t" event []) in
  check "local gets fancy" true (Value.equal r1 (Value.str "fancy"));
  let r2 = ok "outside" (Kernel.call kernel ~subject:out_sub ~caller:"t" event []) in
  check "outside gets plain" true (Value.equal r2 (Value.str "plain"))

let test_event_no_handler () =
  let kernel, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let event = Path.of_string "/svc/lonely" in
  let () = ok "event" (Kernel.install_event kernel ~subject:admin_sub event ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())) in
  match Kernel.call kernel ~subject:(Subject.make alice (cls kernel "local" [])) ~caller:"t" event [] with
  | Error (Service.No_handler _) -> ()
  | _ -> Alcotest.fail "expected No_handler"

let test_handler_runs_capped () =
  let kernel, admin, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let event = Path.of_string "/svc/capped" in
  let () = ok "event" (Kernel.install_event kernel ~subject:admin_sub event ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())) in
  (* A high-classified victim procedure. *)
  let victim_meta =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ])
      (cls kernel "local" [])
  in
  let () = ok "victim" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/victim") ~meta:victim_meta (Service.proc "victim" 0 (Service.const (Value.str "loot")))) in
  (* The handler is pinned at outside: even when a local subject
     raises the event, the handler must not reach the victim. *)
  Events.register kernel event
    {
      Dispatcher.owner = "pinned";
      klass = cls kernel "outside" [];
      guard = None;
      impl = (fun ctx _ -> ctx.Service.call (Path.of_string "/svc/victim") []);
    };
  let local_sub = Subject.make alice (cls kernel "local" []) in
  match Kernel.call kernel ~subject:local_sub ~caller:"t" event [] with
  | Error (Service.Denied { denial = Decision.Mac_denied Mac.Read_up; _ }) -> ()
  | Ok _ -> Alcotest.fail "pinned handler laundered authority"
  | Error other -> Alcotest.failf "unexpected: %s" (Service.error_to_string other)

let test_spawn_and_kill_own_thread () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "org" [ "d1" ]) in
  let counter = ref 0 in
  let body () =
    incr counter;
    if !counter >= 3 then Thread.Finished else Thread.Runnable
  in
  let thread = ok "spawn" (Kernel.spawn kernel ~subject:alice_sub ~name:"worker" ~body) in
  check "registered" true (Namespace.mem (Kernel.namespace kernel) (Path.of_string (Printf.sprintf "/threads/t%d" (Thread.id thread))));
  let quanta = Kernel.run kernel in
  Alcotest.(check int) "three quanta" 3 quanta;
  check "done" true (Thread.state thread = Thread.Done)

let test_kill_requires_delete () =
  let kernel, _, alice, eve = boot () in
  let alice_sub = Subject.make alice (cls kernel "org" [ "d1" ]) in
  let eve_sub = Subject.make eve (cls kernel "org" [ "d2" ]) in
  let immortal () = Thread.Runnable in
  let thread = ok "spawn" (Kernel.spawn kernel ~subject:alice_sub ~name:"victim" ~body:immortal) in
  (* eve's class is incomparable with alice's and she is not on the
     thread's ACL: both layers refuse. *)
  (match Kernel.kill kernel ~subject:eve_sub ~victim:(Thread.id thread) with
  | Error (Service.Denied _) -> ()
  | _ -> Alcotest.fail "eve killed alice's thread");
  check "still alive" true (Thread.is_alive thread);
  let () = ok "self kill" (Kernel.kill kernel ~subject:alice_sub ~victim:(Thread.id thread)) in
  check "killed" true (Thread.state thread = Thread.Killed)

let suite =
  [
    Alcotest.test_case "boot layout" `Quick test_boot_layout;
    Alcotest.test_case "install and call" `Quick test_install_and_call_proc;
    Alcotest.test_case "call checks execute" `Quick test_call_checks_execute;
    Alcotest.test_case "MAC gates calls" `Quick test_mac_gates_calls;
    Alcotest.test_case "arity checked" `Quick test_arity_checked;
    Alcotest.test_case "not callable" `Quick test_call_not_callable;
    Alcotest.test_case "events dispatch by class" `Quick test_events_dispatch_by_class;
    Alcotest.test_case "event without handler" `Quick test_event_no_handler;
    Alcotest.test_case "handler runs capped" `Quick test_handler_runs_capped;
    Alcotest.test_case "spawn and run threads" `Quick test_spawn_and_kill_own_thread;
    Alcotest.test_case "kill requires delete" `Quick test_kill_requires_delete;
  ]

let test_broadcast () =
  let kernel, _, alice, eve = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let event = Path.of_string "/svc/tick" in
  let () = ok "event" (Kernel.install_event kernel ~subject:admin_sub event ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())) in
  let register owner level tag =
    Events.register kernel event
      { Dispatcher.owner; klass = cls kernel level []; guard = None;
        impl = (fun _ _ -> Ok (Value.str tag)) }
  in
  register "logger" "outside" "logged";
  register "cache" "org" "flushed";
  register "secure" "local" "sealed";
  (* A local subject reaches all three, most specific first. *)
  let local_sub = Subject.make alice (cls kernel "local" []) in
  (match Kernel.broadcast kernel ~subject:local_sub ~caller:"t" event [] with
  | Ok results ->
    Alcotest.(check (list string)) "all three, ordered" [ "secure"; "cache"; "logger" ]
      (List.map fst results);
    check "all ok" true (List.for_all (fun (_, r) -> Result.is_ok r) results)
  | Error e -> Alcotest.failf "broadcast: %s" (Service.error_to_string e));
  (* An outside subject reaches only the outside handler. *)
  let out_sub = Subject.make eve (cls kernel "outside" []) in
  (match Kernel.broadcast kernel ~subject:out_sub ~caller:"t" event [] with
  | Ok results -> Alcotest.(check (list string)) "one handler" [ "logger" ] (List.map fst results)
  | Error e -> Alcotest.failf "broadcast: %s" (Service.error_to_string e));
  (* Broadcasting a plain procedure is an error. *)
  let () = ok "proc" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/plain") ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ()) (Service.proc "plain" 0 (Service.const Value.unit))) in
  match Kernel.broadcast kernel ~subject:local_sub ~caller:"t" (Path.of_string "/svc/plain") [] with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "broadcast a procedure"

let test_broadcast_caps_handlers () =
  let kernel, admin, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let event = Path.of_string "/svc/fanout" in
  let () = ok "event" (Kernel.install_event kernel ~subject:admin_sub event ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ())) in
  (* A victim only high subjects may call. *)
  let victim_meta =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ])
      (cls kernel "local" [])
  in
  let () = ok "victim" (Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/jewels") ~meta:victim_meta (Service.proc "jewels" 0 (Service.const (Value.str "gold")))) in
  (* A low-pinned handler that tries to grab the jewels during the
     broadcast. *)
  Events.register kernel event
    { Dispatcher.owner = "thief"; klass = cls kernel "outside" []; guard = None;
      impl = (fun ctx _ -> ctx.Service.call (Path.of_string "/svc/jewels") []) };
  let local_sub = Subject.make alice (cls kernel "local" []) in
  match Kernel.broadcast kernel ~subject:local_sub ~caller:"t" event [] with
  | Ok [ ("thief", Error (Service.Denied { denial = Decision.Mac_denied Mac.Read_up; _ })) ] -> ()
  | Ok _ -> Alcotest.fail "thief handler was not capped"
  | Error e -> Alcotest.failf "broadcast: %s" (Service.error_to_string e)

let suite =
  suite
  @ [
      Alcotest.test_case "broadcast" `Quick test_broadcast;
      Alcotest.test_case "broadcast caps handlers" `Quick test_broadcast_caps_handlers;
    ]

(* {1 Certified dispatch}

   A certified call through [Linked.call] invokes the very node its
   certificate validated, from the import handle the proof is recorded
   on.  Once the target is replaced at the same path, the path names a
   node no proof covers: the call must take the checked path, and be
   denied there when the new node's ACL refuses the caller. *)

let test_certified_call_after_replacement () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  List.iter (Principal.Db.add_individual db) [ admin; alice ];
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let alice_sub = Subject.make alice bottom in
  let audit = Reference_monitor.audit (Kernel.monitor kernel) in
  let target = Path.of_string "/svc/get" in
  let ran = ref [] in
  let proc tag =
    Service.proc "get" 0 (fun _ _ ->
        ran := tag :: !ran;
        Ok (Value.str tag))
  in
  let () =
    ok "install"
      (Kernel.install_proc kernel ~subject:admin_sub target
         ~meta:(Kernel.default_meta kernel ~owner:admin ())
         (proc "old"))
  in
  let linked =
    match
      Linker.link kernel ~subject:alice_sub
        (Extension.make ~name:"a" ~author:alice ~imports:[ target ] ())
    with
    | Ok linked -> linked
    | Error e -> Alcotest.failf "link: %s" (Format.asprintf "%a" Linker.pp_link_error e)
  in
  check "certified" true (Kernel.certificate_admits kernel ~caller:"a" ~subject:alice_sub target);
  let before = Audit.total audit in
  let _ = ok "certified call" (Linker.Linked.call linked ~subject:alice_sub target []) in
  Alcotest.(check int) "the certified call skipped the monitor" before (Audit.total audit);
  (* Replace the target at the same path with a node alice may only
     list. *)
  (match Resolver.remove (Kernel.resolver kernel) ~subject:admin_sub target with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remove: %s" (Format.asprintf "%a" Resolver.pp_denial e));
  let closed =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      bottom
  in
  let () = ok "replace" (Kernel.install_proc kernel ~subject:admin_sub target ~meta:closed (proc "new")) in
  check "the certificate no longer admits" false
    (Kernel.certificate_admits kernel ~caller:"a" ~subject:alice_sub target);
  let denied = Audit.denied_total audit in
  (match Linker.Linked.call linked ~subject:alice_sub target [] with
  | Error (Service.Denied { mode = Access_mode.Execute; _ }) -> ()
  | Ok _ -> Alcotest.fail "the replacement ran on the old certificate"
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e));
  Alcotest.(check int) "denied by the audited checked path" (denied + 1)
    (Audit.denied_total audit);
  Alcotest.(check (list string)) "only the certified node ever ran" [ "old" ] !ran

let suite =
  suite
  @ [
      Alcotest.test_case "certified call after target replacement" `Quick
        test_certified_call_after_replacement;
    ]

(* {1 An extension's fault stays inside the extension}

   Any exception an implementation or a handler raises answers its
   caller with [Ext_failure]; it never unwinds into the kernel. *)

let ext_failure = function
  | Error (Service.Ext_failure _) -> true
  | Ok _ | Error _ -> false

let test_raising_proc_contained () =
  let kernel, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let boom = Path.of_string "/svc/boom" in
  let meta = Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) () in
  let () =
    ok "install"
      (Kernel.install_proc kernel ~subject:admin_sub boom ~meta
         (Service.proc "boom" 0 (fun _ctx _args -> raise Not_found)))
  in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  check "path call answers Ext_failure" true
    (ext_failure (Kernel.call kernel ~subject:alice_sub ~caller:"t" boom []));
  let h = ok "open" (Kernel.open_handle kernel ~subject:alice_sub ~caller:"t" boom) in
  check "handle call answers Ext_failure" true (ext_failure (Kernel.call_handle kernel h []))

let test_raising_handler_contained () =
  let kernel, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  let event = Path.of_string "/svc/tick" in
  let () =
    ok "event"
      (Kernel.install_event kernel ~subject:admin_sub event
         ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) ()))
  in
  Events.register kernel event
    { Dispatcher.owner = "faulty"; klass = cls kernel "local" []; guard = None;
      impl = (fun _ _ -> raise Exit) };
  Events.register kernel event
    { Dispatcher.owner = "steady"; klass = cls kernel "outside" []; guard = None;
      impl = (fun _ _ -> Ok (Value.str "ran")) };
  let local_sub = Subject.make alice (cls kernel "local" []) in
  check "the selected handler's fault answers Ext_failure" true
    (ext_failure (Kernel.call kernel ~subject:local_sub ~caller:"t" event []));
  match Kernel.broadcast kernel ~subject:local_sub ~caller:"t" event [] with
  | Ok [ ("faulty", faulty); ("steady", steady) ] ->
    check "the faulty handler answers Ext_failure" true (ext_failure faulty);
    check "the other handler still runs" true (steady = Ok (Value.str "ran"))
  | Ok _ -> Alcotest.fail "broadcast reached the wrong handlers"
  | Error e -> Alcotest.failf "broadcast: %s" (Service.error_to_string e)

(* ThreadMurder by fault (paper, section 1.2): a thread body that
   raises ends its own thread, and a thread sharing the scheduler with
   it still runs to the end. *)
let test_raising_thread_contained () =
  let kernel, _, alice, eve = boot () in
  let alice_sub = Subject.make alice (cls kernel "org" [ "d1" ]) in
  let eve_sub = Subject.make eve (cls kernel "org" [ "d2" ]) in
  let victim_steps = ref 0 in
  let victim =
    ok "spawn victim"
      (Kernel.spawn kernel ~subject:alice_sub ~name:"victim" ~body:(fun () ->
           incr victim_steps;
           if !victim_steps >= 100 then Thread.Finished else Thread.Runnable))
  in
  let faulty_steps = ref 0 in
  let faulty =
    ok "spawn faulty"
      (Kernel.spawn kernel ~subject:eve_sub ~name:"faulty" ~body:(fun () ->
           incr faulty_steps;
           if !faulty_steps >= 3 then raise Not_found else Thread.Runnable))
  in
  let quanta = Kernel.run kernel in
  Alcotest.(check int) "the victim ran all 100 steps" 100 !victim_steps;
  check "the victim is done" true (Thread.state victim = Thread.Done);
  check "the faulty thread reads Faulted" true (Thread.state faulty = Thread.Faulted "Not_found");
  check "and is not alive" false (Thread.is_alive faulty);
  Alcotest.(check int) "the fault ended it on its third quantum" 3 (Thread.quanta faulty);
  Alcotest.(check int) "quanta" 103 quanta;
  let printed = Format.asprintf "%a" Thread.pp faulty in
  check ("pp says faulted: " ^ printed) true
    (String.ends_with ~suffix:", faulted: Not_found)" printed);
  (* Running out of memory is the process's failure, not the thread's. *)
  let oom =
    ok "spawn oom"
      (Kernel.spawn kernel ~subject:eve_sub ~name:"oom" ~body:(fun () -> raise Out_of_memory))
  in
  (match Kernel.run kernel with
  | _ -> Alcotest.fail "Out_of_memory was contained"
  | exception Out_of_memory -> ());
  check "the thread it escaped is not Faulted" true (Thread.state oom = Thread.Ready)

let suite =
  suite
  @ [
      Alcotest.test_case "a raising proc answers Ext_failure" `Quick
        test_raising_proc_contained;
      Alcotest.test_case "a raising handler is contained" `Quick
        test_raising_handler_contained;
      Alcotest.test_case "a raising thread is contained" `Quick
        test_raising_thread_contained;
    ]
