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

let hook = Path.of_string "/svc/hook"

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
  Alcotest.(check int) "handler registered" 1 (Events.count kernel hook);
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
  Alcotest.(check int) "no handler" 0 (Events.count kernel hook)

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
  Alcotest.(check int) "no handlers" 0 (Events.count kernel hook);
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
  Alcotest.(check int) "handlers removed" 0 (Events.count kernel hook);
  check "registry cleaned" true (Kernel.loaded_extensions kernel = []);
  match Linker.unload kernel ~subject:alice_sub "temp" with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "double unload should fail"

(* Admin removes /svc/hook and publishes it again, this time granting
   [Extend] to admin alone. *)
let republish_hook kernel =
  let admin_sub = Kernel.admin_subject kernel in
  (match Resolver.remove (Kernel.resolver kernel) ~subject:admin_sub hook with
  | Ok () -> ()
  | Error denial -> Alcotest.failf "remove hook: %a" Resolver.pp_denial denial);
  let admin = Subject.principal admin_sub in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
      (Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel))
  in
  match Kernel.install_event kernel ~subject:admin_sub hook ~meta with
  | Ok () -> ()
  | Error e -> Alcotest.failf "republish hook: %s" (Service.error_to_string e)

let link_hooked kernel alice_sub =
  let ext =
    Extension.make ~name:"hooked" ~author:(Subject.principal alice_sub)
      ~extends:[ Extension.extends hook (Service.const (Value.str "alice's")) ]
      ()
  in
  ignore (ok "link" (Linker.link kernel ~subject:alice_sub ext))

let expect_no_handler label = function
  | Error (Service.No_handler _) -> ()
  | Ok v -> Alcotest.failf "%s: a stale handler answered %a" label Value.pp v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Service.error_to_string e)

(* A handler lives on the node its [Extend] right was checked against:
   once that node is gone, a new event at the same path starts empty. *)
let test_republished_event_drops_handlers () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  link_hooked kernel alice_sub;
  (match Kernel.call kernel ~subject:alice_sub ~caller:"t" hook [] with
  | Ok (Value.Str "alice's") -> ()
  | _ -> Alcotest.fail "handler not dispatched before the republish");
  republish_hook kernel;
  Alcotest.(check int) "new node starts empty" 0 (Events.count kernel hook);
  expect_no_handler "call" (Kernel.call kernel ~subject:alice_sub ~caller:"t" hook [])

let test_handle_reresolves_republished_event () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  link_hooked kernel alice_sub;
  let h =
    match Kernel.open_handle kernel ~subject:alice_sub ~caller:"t" hook with
    | Ok h -> h
    | Error e -> Alcotest.failf "open: %s" (Service.error_to_string e)
  in
  (match Kernel.call_handle kernel h [] with
  | Ok (Value.Str "alice's") -> ()
  | _ -> Alcotest.fail "handle did not dispatch before the republish");
  republish_hook kernel;
  expect_no_handler "handle" (Kernel.call_handle kernel h [])

(* An unload refused part way leaves some installed paths removed; once
   the refusal is lifted, a retry must finish rather than trip over
   them. *)
let test_unload_retry_after_partial_failure () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let two =
    Extension.make ~name:"two" ~author:alice
      ~provides:
        [
          Extension.provided "a" 0 (Service.const Value.unit);
          Extension.provided "b" 0 (Service.const Value.unit);
        ]
      ~extends:[ Extension.extends hook (Service.const Value.unit) ]
      ()
  in
  ignore (ok "link" (Linker.link kernel ~subject:alice_sub two));
  let a = Path.of_string "/ext/two/a" in
  let set_acl delete =
    let own =
      List.filter (fun m -> delete || not (Access_mode.equal m Access_mode.Delete)) Access_mode.all
    in
    match
      Resolver.set_acl (Kernel.resolver kernel) ~subject:alice_sub a
        (Acl.of_entries
           [
             Acl.allow (Acl.Individual alice) own;
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
    with
    | Ok () -> ()
    | Error denial -> Alcotest.failf "set_acl: %a" Resolver.pp_denial denial
  in
  set_acl false;
  (match Linker.unload kernel ~subject:alice_sub "two" with
  | Error (Service.Denied { at = "/ext/two/a"; mode = Access_mode.Delete; _ }) -> ()
  | Ok () -> Alcotest.fail "unload ignored the missing Delete"
  | Error e -> Alcotest.failf "first unload: %s" (Service.error_to_string e));
  check "b went first" false (Namespace.mem (Kernel.namespace kernel) (Path.of_string "/ext/two/b"));
  check "still loaded" true (Kernel.loaded_extensions kernel = [ "two" ]);
  set_acl true;
  (match Linker.unload kernel ~subject:alice_sub "two" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "retry: %s" (Service.error_to_string e));
  check "dir removed" false (Namespace.mem (Kernel.namespace kernel) (Path.of_string "/ext/two"));
  check "not loaded" true (Kernel.loaded_extensions kernel = []);
  Alcotest.(check int) "handler removed" 0 (Events.count kernel hook);
  ignore (ok "relink" (Linker.link kernel ~subject:alice_sub two))

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
    Alcotest.test_case "republished event drops handlers" `Quick
      test_republished_event_drops_handlers;
    Alcotest.test_case "handle re-resolves republished event" `Quick
      test_handle_reresolves_republished_event;
    Alcotest.test_case "unload retry after partial failure" `Quick
      test_unload_retry_after_partial_failure;
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
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
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
  let kernel, alice_sub, store, _, linked = boot_chained () in
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
  let ns = Kernel.namespace kernel in
  Namespace.publish ns (Result.get_ok (Namespace.find ns store)) (fun meta ->
      Meta.with_acl meta (Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ]));
  Reference_monitor.set_policy monitor (Reference_monitor.policy monitor);
  let d0 = Audit.denied_total audit in
  (match Linker.Linked.call_chain linked store [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "revoked chain grant served from cache"
  | Error e -> Alcotest.failf "unexpected error: %s" (Service.error_to_string e));
  check "the denial was audited" true (Audit.denied_total audit > d0)

(* A link's call graph is what the new extension reaches, however much
   is loaded: with 64 unrelated extensions in the kernel (importers of
   the same /svc/get, and relays nobody imports), the graph built for
   a relay user holds its own import edge, the relay's provide and the
   relay's import — nothing else — and the chain target is still
   pre-minted.  The quota's per-author count follows every link and
   unload. *)
let test_call_graph_scope () =
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
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let store = Path.of_string "/svc/get" in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup get: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let relay name =
    Extension.make ~name ~author:alice ~imports:[ store ]
      ~provides:[ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
      ()
  in
  let _ = ok "link b" (Linker.link kernel ~subject:alice_sub (relay "b")) in
  for i = 0 to 63 do
    let name = Printf.sprintf "x%02d" i in
    let ext =
      if i mod 2 = 0 then Extension.make ~name ~author:alice ~imports:[ store ] ()
      else relay name
    in
    ignore (ok name (Linker.link kernel ~subject:alice_sub ext))
  done;
  Alcotest.(check int) "65 loaded, all by alice" 65 (Kernel.loaded_by kernel alice);
  let user = Extension.make ~name:"a" ~author:alice ~imports:[ Path.of_string "/ext/b/fetch" ] () in
  let module Cg = Exsec_analysis.Callgraph in
  let graph = Kernel.call_graph kernel user in
  let edges =
    List.sort compare
      (List.map
         (fun (e : Cg.edge) -> e.Cg.src, e.Cg.dst, Option.is_some e.Cg.site)
         graph.Cg.edges)
  in
  Alcotest.(check (list (triple string string bool)))
    "only a's edge and the relay's"
    [ "/ext/b/fetch", "code:b", false; "code:a", "/ext/b/fetch", true; "code:b", "/svc/get", true ]
    edges;
  let linked = ok "link a" (Linker.link kernel ~subject:alice_sub user) in
  check "chain target pre-minted" true (Linker.Linked.chain_handle linked store <> None);
  Alcotest.(check int) "66 loaded" 66 (Kernel.loaded_by kernel alice);
  (match Linker.unload kernel ~subject:alice_sub "x00" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload: %s" (Service.error_to_string e));
  Alcotest.(check int) "unload drops the count" 65 (Kernel.loaded_by kernel alice);
  Alcotest.(check int) "admin authored none" 0 (Kernel.loaded_by kernel admin)

let suite =
  suite
  @ [
      Alcotest.test_case "domain imports" `Quick test_domain_imports;
      Alcotest.test_case "domain union" `Quick test_domain_union;
      Alcotest.test_case "unload revokes chain grants" `Quick
        test_unload_revokes_chain_grants;
      Alcotest.test_case "epoch bump fails chain closed" `Quick
        test_epoch_bump_fails_chain_closed;
      Alcotest.test_case "call graph scope" `Quick test_call_graph_scope;
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
  let was = Exsec_obs.Metrics.enabled () in
  Exsec_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Exsec_obs.Metrics.set_enabled was) @@ fun () ->
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

(* The scan that finds a call's import handle compares paths from the
   leaf up and allocates nothing: a proved call through the last of
   eight imports that share their root segments, by the link's own
   subject, with a preallocated result, allocates 0 words. *)
let test_import_scan_allocates_nothing () =
  let w = boot_proved () in
  let pong = Ok Value.unit in
  let imports = List.init 8 (fun i -> Path.of_string (Printf.sprintf "/svc/scan%d" i)) in
  List.iter
    (fun path ->
      publish w.kernel path
        [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ]
        (fun _ _ -> pong))
    imports;
  let linked =
    ok "link scan"
      (Linker.link w.kernel ~subject:w.alice_sub
         (Extension.make ~name:"scan" ~author:(Subject.principal w.alice_sub) ~imports ()))
  in
  (* Built apart from the import: the scan cannot match it by [==]. *)
  let last = Path.of_string "/svc/scan7" in
  let audit0 = audited w in
  check "served" true (Linker.Linked.call linked ~subject:w.alice_sub last [] == pong);
  Alcotest.(check int) "from the proved handle" audit0 (audited w);
  let run () =
    for _ = 1 to 10_000 do
      ignore (Linker.Linked.call linked ~subject:w.alice_sub last [])
    done
  in
  run ();
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta run in
  Alcotest.(check (float 0.)) "Linked.call words" baseline measured

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

(* {1 A link's handles are the extension's own}

   A refused link closes exactly the handles it minted, and unloading
   closes exactly the handles the link minted: neither touches another
   extension's. *)

let live kernel = (Kernel.handle_stats kernel).Handle.hs_live
let mints kernel = (Kernel.handle_stats kernel).Handle.hs_mints

let test_refused_link_closes_its_handles () =
  let kernel, alice_sub, store, _, linked = boot_chained () in
  let alice = Subject.principal alice_sub in
  let admin_sub = Kernel.admin_subject kernel in
  let admin = Subject.principal admin_sub in
  let vault = Path.of_string "/svc/vault" in
  (match
     Kernel.install_proc kernel ~subject:admin_sub vault
       ~meta:
         (Meta.make ~owner:admin
            ~acl:
              (Acl.of_entries
                 [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
            (Subject.clearance alice_sub))
       (Service.proc "vault" 0 (Service.const Value.unit))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup vault: %s" (Service.error_to_string e));
  (* alice may call the hook but not extend it. *)
  (match
     Kernel.install_event kernel ~subject:admin_sub hook
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup hook: %s" (Service.error_to_string e));
  let refused ext =
    match Linker.link kernel ~subject:alice_sub ext with
    | Ok _ -> Alcotest.fail "link accepted"
    | Error e -> e
  in
  let live0 = live kernel and mints0 = mints kernel in
  (match refused (Extension.make ~name:"second" ~author:alice ~imports:[ store; vault ] ()) with
  | Linker.Import_denied { import; _ } ->
    check "refused at the second import" true (Path.equal import vault)
  | e -> Alcotest.failf "unexpected: %a" Linker.pp_link_error e);
  Alcotest.(check int) "the first import was minted" (mints0 + 1) (mints kernel);
  Alcotest.(check int) "and closed" live0 (live kernel);
  (match
     refused
       (Extension.make ~name:"extender" ~author:alice ~imports:[ store ]
          ~extends:[ Extension.extends hook (Service.const Value.unit) ]
          ())
   with
  | Linker.Extend_denied _ -> ()
  | e -> Alcotest.failf "unexpected: %a" Linker.pp_link_error e);
  Alcotest.(check int) "refused at an Extend: nothing left" live0 (live kernel);
  let mints1 = mints kernel in
  (match
     refused
       (Extension.make ~name:"crash" ~author:alice
          ~imports:[ Path.of_string "/ext/b/fetch" ]
          ~init:(fun _ctx -> Error (Service.Ext_failure "boom"))
          ())
   with
  | Linker.Init_failed _ -> ()
  | e -> Alcotest.failf "unexpected: %a" Linker.pp_link_error e);
  Alcotest.(check int) "the import and chain handles were minted" (mints1 + 2) (mints kernel);
  Alcotest.(check int) "refused in init: nothing left" live0 (live kernel);
  check "no certificate left" true (Kernel.certificate_of kernel "crash" = None);
  check "the loaded extension still serves" true
    (Linker.Linked.call_chain linked store [] = Ok (Value.int 7))

let test_unload_closes_only_its_handles () =
  let kernel, _, alice, _ = boot () in
  let alice_sub = Subject.make alice (cls kernel "local" []) in
  let ping = Path.of_string "/svc/ping" in
  let links =
    Array.init 64 (fun i ->
        ok "link"
          (Linker.link kernel ~subject:alice_sub
             (Extension.make ~name:(Printf.sprintf "e%02d" i) ~author:alice ~imports:[ ping ] ())))
  in
  let live0 = live kernel in
  (match Linker.unload kernel ~subject:alice_sub "e17" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unload: %s" (Service.error_to_string e));
  Alcotest.(check int) "one handle closed" (live0 - 1) (live kernel);
  check "the unloaded import is closed" true
    (is_use_after_close (Linker.Linked.call_import links.(17) ping []));
  Array.iteri
    (fun i linked ->
      if i <> 17 then
        check
          (Printf.sprintf "e%02d still serves" i)
          true
          (Linker.Linked.call_import linked ping [] = Ok (Value.str "pong")))
    links

let suite =
  suite
  @ [
      Alcotest.test_case "refused link closes its handles" `Quick
        test_refused_link_closes_its_handles;
      Alcotest.test_case "unload closes only its handles" `Quick
        test_unload_closes_only_its_handles;
      Alcotest.test_case "import scan allocates nothing" `Quick
        test_import_scan_allocates_nothing;
    ]
