(* Randomized soak testing of the whole stack: seeded random operation
   streams against a live kernel, with global invariants checked at
   the end.  The point is crash-freedom plus end-to-end soundness —
   whatever the sequence of (checked) operations, the audit trail of a
   default-policy kernel must be flow-clean. *)

open Exsec_core
open Exsec_extsys
open Exsec_services
open Exsec_workload

let check = Alcotest.(check bool)

type world = {
  kernel : Kernel.t;
  fs : Memfs.t;
  db : Principal.Db.t;
  subjects : Subject.t array;  (* one fixed-class session per principal *)
  admin_sub : Subject.t;  (* trusted; its protection mutations succeed *)
  fuzzers : Principal.group;  (* churned and named in fuzzed ACLs *)
  handles : Handle.h option array;
      (* a small pool of capability handles fuzzed open/call/close;
         a slot may deliberately keep a closed handle around so later
         calls soak the use-after-close and recycled-slot paths *)
  rng : Prng.t;
}

let build_world ~seed =
  let rng = Prng.create ~seed in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let hierarchy = Level.hierarchy [ "l2"; "l1"; "l0" ] in
  let universe = Category.universe [ "a"; "b" ] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let fs =
    match Memfs.mount kernel ~subject:admin_sub () with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "mount: %s" (Service.error_to_string e)
  in
  (match Memfs.install_service fs ~subject:admin_sub with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fs service: %s" (Service.error_to_string e));
  let subjects =
    Array.init 6 (fun i ->
        let ind = Principal.individual (Printf.sprintf "fuzz%d" i) in
        Principal.Db.add_individual db ind;
        Subject.make ind (Gen.security_class rng hierarchy universe))
  in
  let fuzzers = Principal.group "fuzzers" in
  Principal.Db.add_member db fuzzers (Principal.Ind (Principal.individual "fuzz0"));
  { kernel; fs; db; subjects; admin_sub; fuzzers; handles = Array.make 8 None; rng }

(* Policy flips stay among the MAC-preserving variants: every one of
   these enforces no-read-up and no-write-down, so the flow-cleanliness
   invariant must survive flips mid-soak.  (dac_only / unchecked would
   legitimately grant flows that [Flow.analyse] flags.) *)
let safe_policies =
  [
    Policy.default;
    { Policy.default with Policy.overwrite = Mac.Liberal };
    Policy.no_integrity;
    Policy.with_recheck Policy.default;
  ]

(* One random operation; outcomes (grant or denial) are irrelevant —
   only crash-freedom and the final invariants matter. *)
let random_op world step =
  let subject = world.subjects.(Prng.int world.rng (Array.length world.subjects)) in
  let name = Printf.sprintf "f%d" (Prng.int world.rng 12) in
  match Prng.int world.rng 16 with
  | 0 -> ignore (Memfs.create world.fs ~subject name "contents")
  | 1 -> ignore (Memfs.read world.fs ~subject name)
  | 2 -> ignore (Memfs.write world.fs ~subject name (Printf.sprintf "v%d" step))
  | 3 -> ignore (Memfs.append world.fs ~subject name "+")
  | 4 -> ignore (Memfs.remove world.fs ~subject name)
  | 5 -> ignore (Memfs.list world.fs ~subject "")
  | 6 ->
    ignore
      (Kernel.call world.kernel ~subject ~caller:"fuzz"
         (Path.of_string "/svc/fs/read") [ Value.str name ])
  | 7 -> (
    (* Occasionally load/unload a small extension. *)
    let ext_name = Printf.sprintf "fx%d" (Prng.int world.rng 3) in
    if Prng.bool world.rng then
      ignore
        (Linker.link world.kernel ~subject
           (Extension.make ~name:ext_name ~author:(Subject.principal subject)
              ~imports:[ Path.of_string "/svc/fs/read" ]
              ~provides:[ Extension.provided "probe" 0 (Service.const Value.unit) ]
              ()))
    else ignore (Linker.unload world.kernel ~subject ext_name))
  | 8 ->
    (* ACL mutation on a fuzzed file, by the admin (succeeds when the
       file exists) or by a random subject (usually denied — both
       paths matter).  The new ACL sometimes names the churned group,
       so membership changes below flip later outcomes. *)
    let actor = if Prng.bool world.rng then world.admin_sub else subject in
    let acl =
      match Prng.int world.rng 3 with
      | 0 -> Acl.of_entries [ Acl.allow_all Acl.Everyone ]
      | 1 ->
        Acl.of_entries
          [
            Acl.allow (Acl.Group world.fuzzers)
              [ Access_mode.Read; Access_mode.Write; Access_mode.Write_append ];
          ]
      | _ ->
        Acl.of_entries
          [
            Acl.deny (Acl.Individual (Subject.principal subject)) [ Access_mode.Read ];
            Acl.allow_all Acl.Everyone;
          ]
    in
    ignore
      (Resolver.set_acl (Kernel.resolver world.kernel) ~subject:actor
         (Path.of_string (Printf.sprintf "/fs/%s" name))
         acl)
  | 9 ->
    (* Policy flip; restricted to the MAC-preserving set above. *)
    Reference_monitor.set_policy
      (Kernel.monitor world.kernel)
      (Prng.choose_list world.rng safe_policies)
  | 10 ->
    (* Group membership churn: revokes (or grants) every decision
       that an ACL group entry produced, through the compiled ACLs. *)
    let ind = Principal.individual (Printf.sprintf "fuzz%d" (Prng.int world.rng 6)) in
    if Prng.bool world.rng then
      Principal.Db.add_member world.db world.fuzzers (Principal.Ind ind)
    else Principal.Db.remove_member world.db world.fuzzers (Principal.Ind ind)
  | 11 ->
    (* Owner-driven ACL mutation through the checked monitor entry
       point (no resolver traversal): direct set_acl on the file's
       metadata if it resolves. *)
    (match Namespace.find (Kernel.namespace world.kernel) (Path.of_string (Printf.sprintf "/fs/%s" name)) with
    | Ok node ->
      ignore
        (Reference_monitor.set_acl
           (Kernel.monitor world.kernel)
           ~subject ~meta:(Namespace.meta node)
           ~object_name:(Printf.sprintf "/fs/%s" name)
           (Acl.of_entries [ Acl.allow_all Acl.Everyone ]))
    | Error _ -> ())
  | 12 | 13 ->
    (* Open a capability handle into a pool slot — sometimes on a
       callable proc, sometimes on a plain file (refused as not
       callable); an occupied slot is closed first, so slot reuse is
       constantly exercised. *)
    let slot = Prng.int world.rng (Array.length world.handles) in
    (match world.handles.(slot) with
    | Some h -> ignore (Kernel.close_handle world.kernel h)
    | None -> ());
    let path =
      if Prng.bool world.rng then Path.of_string "/svc/fs/read"
      else Path.of_string (Printf.sprintf "/fs/%s" name)
    in
    (match Kernel.open_handle world.kernel ~subject ~caller:"fuzz" path with
    | Ok h -> world.handles.(slot) <- Some h
    | Error _ -> world.handles.(slot) <- None)
  | 14 -> (
    (* Call through a pooled handle; the slot may hold a live handle
       (fast or stale-revalidated path), or a deliberately retained
       closed one (use-after-close denial).  Outcomes are free to vary
       — concurrent fuzz ops mutate ACLs, policy and membership. *)
    match world.handles.(Prng.int world.rng (Array.length world.handles)) with
    | Some h -> ignore (Kernel.call_handle world.kernel h [ Value.str name ])
    | None -> ())
  | _ -> (
    (* Close a pooled handle; half the time the dead handle stays in
       the slot so later calls soak the stale-reuse path. *)
    let slot = Prng.int world.rng (Array.length world.handles) in
    match world.handles.(slot) with
    | Some h ->
      ignore (Kernel.close_handle world.kernel h);
      if Prng.bool world.rng then world.handles.(slot) <- None
    | None -> ())

let soak ~seed ~steps =
  let world = build_world ~seed in
  for step = 1 to steps do
    random_op world step
  done;
  world

let test_no_crashes_many_seeds () =
  List.iter
    (fun seed -> ignore (soak ~seed ~steps:400))
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let test_flow_clean_after_soak () =
  List.iter
    (fun seed ->
      let world = soak ~seed ~steps:400 in
      let report =
        Flow.analyse_log (Reference_monitor.audit (Kernel.monitor world.kernel))
      in
      if not (Flow.is_clean report) then
        Alcotest.failf "seed %d: %s" seed (Format.asprintf "%a" Flow.pp_report report))
    [ 7; 11; 99 ]

let test_audit_totals_consistent () =
  let world = soak ~seed:1234 ~steps:500 in
  let audit = Reference_monitor.audit (Kernel.monitor world.kernel) in
  check "many decisions" true (Audit.total audit > 500);
  Alcotest.(check int) "totals add up" (Audit.total audit)
    (Audit.granted_total audit + Audit.denied_total audit)

let test_namespace_stays_wellformed () =
  let world = soak ~seed:4321 ~steps:500 in
  let ns = Kernel.namespace world.kernel in
  (* Every node's label matches its path, every child's path extends
     its parent's. *)
  Namespace.iter ns (fun node ->
      check "label matches path" true
        (String.equal (Namespace.label node) (Path.to_string (Namespace.path node)));
      List.iter
        (fun (name, child) ->
          check "child path" true
            (Path.equal (Namespace.path child) (Path.child (Namespace.path node) name)))
        (Namespace.children node))

let test_deterministic_replay () =
  let run seed =
    let world = soak ~seed ~steps:300 in
    let audit = Reference_monitor.audit (Kernel.monitor world.kernel) in
    Audit.granted_total audit, Audit.denied_total audit, Namespace.size (Kernel.namespace world.kernel)
  in
  let a = run 777 in
  let b = run 777 in
  check "same grants/denials/size" true (a = b)

let suite =
  [
    Alcotest.test_case "no crashes across seeds" `Quick test_no_crashes_many_seeds;
    Alcotest.test_case "flow-clean after soak" `Quick test_flow_clean_after_soak;
    Alcotest.test_case "audit totals consistent" `Quick test_audit_totals_consistent;
    Alcotest.test_case "namespace well-formed" `Quick test_namespace_stays_wellformed;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
  ]
