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
  let universe = Category.universe [ "d1" ] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  (* One world-callable service and one extensible event. *)
  let admin_sub = Kernel.admin_subject kernel in
  let meta () = Kernel.default_meta kernel ~owner:admin () in
  (match Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/ping") ~meta:(meta ())
           (Service.proc "ping" 0 (Service.const (Value.str "pong")))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup ping: %s" (Service.error_to_string e));
  (* The event grants Extend to alice only. *)
  let event_meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
             Acl.allow (Acl.Individual alice) [ Access_mode.Extend ];
           ])
      (Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel))
  in
  (match Kernel.install_event kernel ~subject:admin_sub (Path.of_string "/svc/hook") ~meta:event_meta with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup hook: %s" (Service.error_to_string e));
  kernel, admin, alice, eve

let cls kernel level cats =
  Security_class.make
    (Level.of_name_exn (Kernel.hierarchy kernel) level)
    (Category.of_names (Kernel.universe kernel) cats)

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" Linker.pp_link_error e)

let test_successful_link () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" [ "d1" ]) in
  let ext =
    Extension.make ~name:"good" ~author:alice
      ~imports:[ Path.of_string "/svc/ping" ]
      ~provides:[ Extension.provided "hello" 0 (Service.const (Value.str "hi")) ]
      ~extends:[ Extension.extends (Path.of_string "/svc/hook") (Service.const Value.unit) ]
      ()
  in
  let linked = ok "link" (Linker.link kernel ~subject:alice_sub ext) in
  Alcotest.(check (list string)) "loaded" [ "good" ] (Kernel.loaded_extensions kernel);
  check "import listed" true (List.exists (Path.equal (Path.of_string "/svc/ping")) (Linker.Linked.imports linked));
  check "provides installed" true (Namespace.mem (Kernel.namespace kernel) (Path.of_string "/ext/good/hello"));
  Alcotest.(check int) "handler registered" 1 (Dispatcher.handler_count (Kernel.dispatcher kernel));
  (* The provided procedure is world-callable. *)
  (match Kernel.call kernel ~subject:alice_sub ~caller:"t" (Path.of_string "/ext/good/hello") [] with
  | Ok (Value.Str "hi") -> ()
  | _ -> Alcotest.fail "provided proc broken")

let test_import_denied () =
  let kernel, admin, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* Install a service alice may not execute. *)
  let closed_meta =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel))
  in
  (match Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/closed") ~meta:closed_meta (Service.proc "closed" 0 (Service.const Value.unit)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ext = Extension.make ~name:"nosy" ~author:alice ~imports:[ Path.of_string "/svc/closed" ] () in
  (match Linker.link kernel ~subject:alice_sub ext with
  | Error (Linker.Import_denied { import; _ }) ->
    Alcotest.(check string) "which import" "/svc/closed" (Path.to_string import)
  | _ -> Alcotest.fail "import should be denied");
  check "nothing loaded" true (Kernel.loaded_extensions kernel = []);
  check "no directory left" false (Namespace.mem (Kernel.namespace kernel) (Path.of_string "/ext/nosy"))

let test_extend_denied () =
  let kernel, _, _, eve = boot () in
  let eve_sub = Subject.make eve (cls kernel "local" []) in
  let ext =
    Extension.make ~name:"sneaky" ~author:eve
      ~extends:[ Extension.extends (Path.of_string "/svc/hook") (Service.const Value.unit) ]
      ()
  in
  (match Linker.link kernel ~subject:eve_sub ext with
  | Error (Linker.Extend_denied _) -> ()
  | _ -> Alcotest.fail "extend should be denied");
  Alcotest.(check int) "no handler" 0 (Dispatcher.handler_count (Kernel.dispatcher kernel))

let test_extend_requires_event () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  (* /svc/ping is a plain procedure, not an event. *)
  let ext =
    Extension.make ~name:"confused" ~author:alice
      ~extends:[ Extension.extends (Path.of_string "/svc/ping") (Service.const Value.unit) ]
      ()
  in
  match Linker.link kernel ~subject:alice_sub ext with
  | Error (Linker.Extend_denied _) -> ()
  | _ -> Alcotest.fail "extending a non-event should fail"

let test_static_class_caps_link_checks () =
  let kernel, admin, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* A high-classified service: callable in principle by local
     subjects. *)
  let high_meta =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ])
      (cls kernel "local" [])
  in
  (match Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/sensitive") ~meta:high_meta (Service.proc "s" 0 (Service.const Value.unit)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  (* Unpinned: linking succeeds. *)
  let free = Extension.make ~name:"free" ~author:alice ~imports:[ Path.of_string "/svc/sensitive" ] () in
  let _ = ok "free link" (Linker.link kernel ~subject:alice_sub free) in
  (* Pinned at outside: the same import is refused at link time. *)
  let pinned =
    Extension.make ~name:"pinned" ~author:alice ~static_class:(cls kernel "outside" [])
      ~imports:[ Path.of_string "/svc/sensitive" ] ()
  in
  match Linker.link kernel ~subject:alice_sub pinned with
  | Error (Linker.Import_denied _) -> ()
  | _ -> Alcotest.fail "pinned import should be denied"

let test_linked_call_only_imports () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ext = Extension.make ~name:"narrow" ~author:alice ~imports:[ Path.of_string "/svc/ping" ] () in
  let linked = ok "link" (Linker.link kernel ~subject:alice_sub ext) in
  (match Linker.Linked.call linked ~subject:alice_sub (Path.of_string "/svc/ping") [] with
  | Ok (Value.Str "pong") -> ()
  | _ -> Alcotest.fail "import call failed");
  (* /svc/hook exists and is world-executable, but it is not in the
     import table. *)
  match Linker.Linked.call linked ~subject:alice_sub (Path.of_string "/svc/hook") [] with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "called outside the import table"

let test_already_loaded () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ext = Extension.make ~name:"dup" ~author:alice () in
  let _ = ok "first" (Linker.link kernel ~subject:alice_sub ext) in
  match Linker.link kernel ~subject:alice_sub ext with
  | Error (Linker.Already_loaded "dup") -> ()
  | _ -> Alcotest.fail "expected Already_loaded"

let test_init_failure_rolls_back () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ext =
    Extension.make ~name:"broken" ~author:alice
      ~provides:[ Extension.provided "stub" 0 (Service.const Value.unit) ]
      ~extends:[ Extension.extends (Path.of_string "/svc/hook") (Service.const Value.unit) ]
      ~init:(fun _ctx -> Error (Service.Ext_failure "boom"))
      ()
  in
  (match Linker.link kernel ~subject:alice_sub ext with
  | Error (Linker.Init_failed (Service.Ext_failure "boom")) -> ()
  | _ -> Alcotest.fail "expected Init_failed");
  check "no leftovers" false (Namespace.mem (Kernel.namespace kernel) (Path.of_string "/ext/broken"));
  Alcotest.(check int) "no handlers" 0 (Dispatcher.handler_count (Kernel.dispatcher kernel));
  check "not loaded" true (Kernel.loaded_extensions kernel = [])

let test_unload () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ext =
    Extension.make ~name:"temp" ~author:alice
      ~provides:[ Extension.provided "stub" 0 (Service.const Value.unit) ]
      ~extends:[ Extension.extends (Path.of_string "/svc/hook") (Service.const Value.unit) ]
      ()
  in
  let _ = ok "link" (Linker.link kernel ~subject:alice_sub ext) in
  (match Linker.unload kernel ~subject:alice_sub "temp" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload: %s" (Service.error_to_string e));
  check "dir removed" false (Namespace.mem (Kernel.namespace kernel) (Path.of_string "/ext/temp"));
  Alcotest.(check int) "handlers removed" 0 (Dispatcher.handler_count (Kernel.dispatcher kernel));
  check "registry cleaned" true (Kernel.loaded_extensions kernel = []);
  match Linker.unload kernel ~subject:alice_sub "temp" with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "double unload should fail"

let suite =
  [
    Alcotest.test_case "successful link" `Quick test_successful_link;
    Alcotest.test_case "import denied" `Quick test_import_denied;
    Alcotest.test_case "extend denied" `Quick test_extend_denied;
    Alcotest.test_case "extend requires event" `Quick test_extend_requires_event;
    Alcotest.test_case "static class caps link" `Quick test_static_class_caps_link_checks;
    Alcotest.test_case "calls limited to imports" `Quick test_linked_call_only_imports;
    Alcotest.test_case "already loaded" `Quick test_already_loaded;
    Alcotest.test_case "init failure rolls back" `Quick test_init_failure_rolls_back;
    Alcotest.test_case "unload" `Quick test_unload;
  ]

let test_domain_imports () =
  let kernel, _, alice, _ = boot () in
  let admin_sub = Kernel.admin_subject kernel in
  (* A small interface with two procedures, grouped into a domain. *)
  let meta () = Kernel.default_meta kernel ~owner:(Subject.principal admin_sub) () in
  let mount = Path.of_string "/svc/math" in
  let iface =
    Iface.make "math" [ Iface.proc_sig "add" 2; Iface.proc_sig "neg" 1 ]
  in
  let impl_of = function
    | "add" ->
      fun _ctx args ->
        (match args with
        | [ a; b ] -> Ok (Value.int (Value.to_int_exn a + Value.to_int_exn b))
        | _ -> Error (Service.Bad_argument "add"))
    | _ ->
      fun _ctx args ->
        (match args with
        | [ a ] -> Ok (Value.int (-Value.to_int_exn a))
        | _ -> Error (Service.Bad_argument "neg"))
  in
  (match Kernel.install_iface kernel ~subject:admin_sub ~mount ~meta:(fun _ -> meta ()) iface impl_of with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %s" (Service.error_to_string e));
  let math_domain = Domain.make "math" [ mount ] in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ext = Extension.make ~name:"calc" ~author:alice ~import_domains:[ math_domain ] () in
  let linked = ok "link" (Linker.link kernel ~subject:alice_sub ext) in
  (* Both procedures of the domain are in the import table. *)
  Alcotest.(check int) "two imports" 2 (List.length (Linker.Linked.imports linked));
  (match Linker.Linked.call linked ~subject:alice_sub (Path.child mount "add") [ Value.int 2; Value.int 40 ] with
  | Ok (Value.Int 42) -> ()
  | _ -> Alcotest.fail "domain import not callable");
  (* A domain containing a procedure the subject cannot execute
     refuses the whole link. *)
  let closed_meta =
    Meta.make ~owner:(Subject.principal admin_sub)
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel))
  in
  (match Kernel.install_proc kernel ~subject:admin_sub (Path.child mount "secret") ~meta:closed_meta (Service.proc "secret" 0 (Service.const Value.unit)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install secret: %s" (Service.error_to_string e));
  let ext2 = Extension.make ~name:"calc2" ~author:alice ~import_domains:[ math_domain ] () in
  match Linker.link kernel ~subject:alice_sub ext2 with
  | Error (Linker.Import_denied { import; _ }) ->
    Alcotest.(check string) "denied on secret" "/svc/math/secret" (Path.to_string import)
  | _ -> Alcotest.fail "link should fail on the unreadable member"

let test_domain_union () =
  let d1 = Domain.make "a" [ Path.of_string "/svc/x" ] in
  let d2 = Domain.make "b" [ Path.of_string "/svc/y"; Path.of_string "/svc/x" ] in
  let u = Domain.union "ab" [ d1; d2 ] in
  Alcotest.(check int) "deduped" 2 (List.length (Domain.interfaces u));
  check "member under mount" true (Domain.member u (Path.of_string "/svc/x/proc"));
  check "not member" false (Domain.member u (Path.of_string "/svc/z"))

(* {1 Chain-proof lifecycle}

   With a clearance registry the linker consumes the interprocedural
   chain proofs: provably-redundant transitive targets are folded into
   the certificate and pre-minted as handles.  Unload and epoch drift
   must revoke both — a pre-minted grant never outlives the state it
   was proved against. *)

let boot_chained () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ~registry ~db ~admin ~hierarchy ~universe ()
  in
  let store = Path.of_string "/svc/get" in
  let store_meta = Kernel.default_meta kernel ~owner:admin () in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store
       ~meta:store_meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup get: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let provider =
    Extension.make ~name:"b" ~author:alice ~imports:[ store ]
      ~provides:
        [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
      ()
  in
  let _ = ok "link b" (Linker.link kernel ~subject:alice_sub provider) in
  let caller =
    Extension.make ~name:"a" ~author:alice
      ~imports:[ Path.of_string "/ext/b/fetch" ] ()
  in
  let linked = ok "link a" (Linker.link kernel ~subject:alice_sub caller) in
  kernel, alice_sub, store, store_meta, linked

let is_use_after_close = function
  | Error (Service.Denied { denial = Decision.Not_an_object; _ }) -> true
  | Ok _ | Error _ -> false

let test_unload_revokes_chain_grants () =
  let kernel, alice_sub, store, _, linked = boot_chained () in
  check "chain target pre-minted" true
    (List.exists (Path.equal store) (Linker.Linked.chain_imports linked));
  check "chain call serves" true (Linker.Linked.call_chain linked store [] = Ok (Value.int 7));
  (match Linker.unload kernel ~subject:alice_sub "a" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload: %s" (Service.error_to_string e));
  (* The pre-minted handle died with the extension... *)
  check "unload closed the chain handle" true
    (is_use_after_close (Linker.Linked.call_chain linked store []));
  (* ...and so did the widened certificate. *)
  check "chain certificate dropped" true (Kernel.certificate_of kernel "a" = None);
  check "no fast path for the departed caller" false
    (Kernel.certificate_admits kernel ~caller:"a" ~subject:alice_sub store)

let test_epoch_bump_fails_chain_closed () =
  let kernel, alice_sub, store, store_meta, linked = boot_chained () in
  let monitor = Kernel.monitor kernel in
  let audit = Reference_monitor.audit monitor in
  check "chain call serves" true (Linker.Linked.call_chain linked store [] = Ok (Value.int 7));
  check "certificate admits before the bump" true
    (Kernel.certificate_admits kernel ~caller:"a" ~subject:alice_sub store);
  (* Epoch bump with the SAME policy: every pre-minted grant and the
     widened certificate stop validating at once.  The next chain call
     falls into the fully checked, audited path — and re-mints, since
     the access is still admitted. *)
  Reference_monitor.set_policy monitor (Reference_monitor.policy monitor);
  check "certificate stale after the bump" false
    (Kernel.certificate_admits kernel ~caller:"a" ~subject:alice_sub store);
  let t0 = Audit.total audit in
  check "checked path still grants" true
    (Linker.Linked.call_chain linked store [] = Ok (Value.int 7));
  check "the re-check was audited" true (Audit.total audit > t0);
  (* Mid-chain revocation: close the target's ACL, bump the epoch
     again — the pre-minted handle must deny, never grant from cache. *)
  Meta.set_acl_raw store_meta
    (Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ]);
  Reference_monitor.set_policy monitor (Reference_monitor.policy monitor);
  let d0 = Audit.denied_total audit in
  (match Linker.Linked.call_chain linked store [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "revoked chain grant served from cache"
  | Error e -> Alcotest.failf "unexpected error: %s" (Service.error_to_string e));
  check "the denial was audited" true (Audit.denied_total audit > d0)

let suite =
  suite
  @ [
      Alcotest.test_case "domain imports" `Quick test_domain_imports;
      Alcotest.test_case "domain union" `Quick test_domain_union;
      Alcotest.test_case "unload revokes chain grants" `Quick
        test_unload_revokes_chain_grants;
      Alcotest.test_case "epoch bump fails chain closed" `Quick
        test_epoch_bump_fails_chain_closed;
    ]

(* {1 Proved import handles}

   [Linked.call] serves every subject its certificate covers from the
   one import handle minted at link time, under that subject's own
   identity and class; anything the proof does not cover goes through
   the checked, audited [Kernel.call]. *)

(* Publish a proc as admin, who may also remove it again. *)
let publish kernel path entries impl =
  let admin_sub = Kernel.admin_subject kernel in
  let admin = Subject.principal admin_sub in
  let bottom = Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel) in
  let acl = Acl.of_entries (Acl.allow_all (Acl.Individual admin) :: entries) in
  match
    Kernel.install_proc kernel ~subject:admin_sub path ~meta:(Meta.make ~owner:admin ~acl bottom)
      (Service.proc "p" 0 impl)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "publish %a: %s" Path.pp path (Service.error_to_string e)

type proved = {
  kernel : Kernel.t;
  linked : Linker.Linked.t;
  who : Path.t;  (* open to everyone: proved Always_allow *)
  gated : Path.t;  (* alice only: proved Depends *)
  alice_sub : Subject.t;
  bob_sub : Subject.t;  (* covered, at a higher class than alice *)
  eve_sub : Subject.t;  (* not registered: never covered *)
}

let boot_proved () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  let eve = Principal.individual "eve" in
  List.iter (Principal.Db.add_individual db) [ admin; alice; bob; eve ];
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let top = Security_class.top hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin top;
  Clearance.register registry alice bottom;
  Clearance.register registry bob top;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let who = Path.of_string "/svc/who" and gated = Path.of_string "/svc/gated" in
  publish kernel who
    [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ]
    (fun ctx _ -> Ok (Value.str (Format.asprintf "%a" Subject.pp ctx.Service.subject)));
  publish kernel gated
    [
      Acl.allow (Acl.Individual alice) [ Access_mode.List; Access_mode.Execute ];
      Acl.allow Acl.Everyone [ Access_mode.List ];
    ]
    (Service.const (Value.str "gated"));
  let alice_sub = Subject.make alice bottom in
  let linked =
    ok "link"
      (Linker.link kernel ~subject:alice_sub
         (Extension.make ~name:"x" ~author:alice ~imports:[ who; gated ] ()))
  in
  {
    kernel; linked; who; gated; alice_sub; bob_sub = Subject.make bob top;
    eve_sub = Subject.make eve bottom;
  }

let audited w = Audit.total (Reference_monitor.audit (Kernel.monitor w.kernel))
let render subject = Value.str (Format.asprintf "%a" Subject.pp subject)
let hits () = Exsec_obs.Metrics.value (Exsec_obs.Metrics.counter "handle.hits")

let test_covered_subject_runs_as_itself () =
  Exsec_obs.Metrics.set_enabled true;
  let w = boot_proved () in
  check "who is proved for every session" true
    (Exsec_analysis.Certificate.verdict_for (Option.get (Linker.Linked.certificate w.linked)) w.who
    = Some Exsec_analysis.Verdict.Always_allow);
  let audit0 = audited w and hits0 = hits () in
  check "bob runs as bob, at his own class" true
    (Linker.Linked.call w.linked ~subject:w.bob_sub w.who [] = Ok (render w.bob_sub));
  check "alice runs as alice" true
    (Linker.Linked.call w.linked ~subject:w.alice_sub w.who [] = Ok (render w.alice_sub));
  Alcotest.(check int) "no audited decision" audit0 (audited w);
  Alcotest.(check int) "both served from the import handle" (hits0 + 2) (hits ())

let test_unproved_calls_are_checked () =
  let w = boot_proved () in
  let audit0 = audited w in
  check "eve (not registered) is served" true
    (Linker.Linked.call w.linked ~subject:w.eve_sub w.who [] = Ok (render w.eve_sub));
  check "an uncovered subject takes the audited path" true (audited w > audit0);
  let audit1 = audited w in
  check "the Depends import is served" true
    (Linker.Linked.call w.linked ~subject:w.alice_sub w.gated [] = Ok (Value.str "gated"));
  check "a Depends import takes the audited path" true (audited w > audit1)

let test_revocation_leaves_call_import () =
  let w = boot_proved () in
  Kernel.revoke_certificate w.kernel "x";
  let audit0 = audited w in
  check "checked call still serves" true
    (Linker.Linked.call w.linked ~subject:w.alice_sub w.who [] = Ok (render w.alice_sub));
  check "after revocation Linked.call is checked" true (audited w > audit0);
  let audit1 = audited w in
  check "call_import still serves" true
    (Linker.Linked.call_import w.linked w.who [] = Ok (render w.alice_sub));
  Alcotest.(check int) "from its monitor-admitted grant" audit1 (audited w)

let test_expiry_ends_proved_dispatch () =
  let w = boot_proved () in
  let timed =
    ok "link y"
      (Linker.link
         ~profile:(Exsec_analysis.Certificate.make_profile ~name:"short" ~validity:1 ())
         w.kernel ~subject:w.alice_sub
         (Extension.make ~name:"y" ~author:(Subject.principal w.alice_sub) ~imports:[ w.who ] ()))
  in
  let audit0 = audited w in
  check "served before expiry" true
    (Linker.Linked.call timed ~subject:w.bob_sub w.who [] = Ok (render w.bob_sub));
  Alcotest.(check int) "from the proved handle" audit0 (audited w);
  ignore (Kernel.advance_cert_epoch w.kernel);
  check "served after expiry" true
    (Linker.Linked.call timed ~subject:w.bob_sub w.who [] = Ok (render w.bob_sub));
  check "through the audited path" true (audited w > audit0)

(* A proof recorded on a handle must name the node that handle
   dispatches.  Replace the target behind the import handle, then
   re-certify: the fresh proof is about the new node, the handle still
   holds the old one, so the call must not run the old procedure. *)
let test_proof_names_the_dispatched_node () =
  let w = boot_proved () in
  let admin_sub = Kernel.admin_subject w.kernel in
  (match Resolver.remove (Kernel.resolver w.kernel) ~subject:admin_sub w.who with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remove: %a" Resolver.pp_denial e);
  publish w.kernel w.who
    [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ]
    (Service.const (Value.str "new"));
  Kernel.note_certificate w.kernel
    (Exsec_analysis.Certificate.issue ~monitor:(Kernel.monitor w.kernel)
       ~registry:(Option.get (Kernel.registry w.kernel))
       ~namespace:(Kernel.namespace w.kernel) ~extension:"x" ~imports:[ w.who ] ());
  check "the new node answers" true
    (Linker.Linked.call w.linked ~subject:w.bob_sub w.who [] = Ok (Value.str "new"))

let suite =
  suite
  @ [
      Alcotest.test_case "covered subject runs as itself" `Quick
        test_covered_subject_runs_as_itself;
      Alcotest.test_case "unproved calls are checked" `Quick test_unproved_calls_are_checked;
      Alcotest.test_case "revocation leaves call_import" `Quick
        test_revocation_leaves_call_import;
      Alcotest.test_case "expiry ends the proved dispatch" `Quick
        test_expiry_ends_proved_dispatch;
      Alcotest.test_case "proof names the dispatched node" `Quick
        test_proof_names_the_dispatched_node;
    ]
