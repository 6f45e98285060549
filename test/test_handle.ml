(* Capability handles (Kernel.open_handle / call_handle): staleness
   and revocation regressions, the zero-allocation pins on the granted
   hot path, and the denial-mapping determinism contract.  The reference
   oracle (oracle.ml) holds every handle call to the interpreted monitor
   under churn, audited denials included. *)

open Exsec_core
open Exsec_extsys

let check = Alcotest.(check bool)

(* {1 Staleness and revocation regressions} *)

let simple_fixture () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let ping = Path.of_string "/svc/ping" in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
      (Security_class.bottom hierarchy universe)
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) ping ~meta
       (Service.proc "ping" 0 (Service.const (Value.int 42)))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice_sub = Subject.make alice (Security_class.bottom hierarchy universe) in
  kernel, ping, meta, alice_sub

let is_use_after_close = function
  | Error (Service.Denied { denial = Decision.Not_an_object; _ }) -> true
  | Ok _ | Error _ -> false

let open_exn kernel ~subject ~caller path =
  match Kernel.open_handle kernel ~subject ~caller path with
  | Ok h -> h
  | Error e -> failwith (Service.error_to_string e)

let test_close_denies () =
  let kernel, ping, _meta, alice = simple_fixture () in
  let h = open_exn kernel ~subject:alice ~caller:"t" ping in
  check "granted while open" true (Kernel.call_handle kernel h [] = Ok (Value.int 42));
  check "close succeeds" true (Kernel.close_handle kernel h);
  check "use after close denied" true (is_use_after_close (Kernel.call_handle kernel h []));
  check "close is idempotent" false (Kernel.close_handle kernel h);
  check "target gone" true (Kernel.handle_target kernel h = None)

let test_slot_reuse_never_grants () =
  let kernel, ping, _meta, alice = simple_fixture () in
  let h1 = open_exn kernel ~subject:alice ~caller:"t" ping in
  ignore (Kernel.close_handle kernel h1);
  let h2 = open_exn kernel ~subject:alice ~caller:"t" ping in
  (* The table recycles freed slots LIFO: h2 must occupy h1's slot, so
     this is the real recycled-slot case, caught by the stamp alone. *)
  check "slot actually recycled" true (Handle.index h1 = Handle.index h2);
  check "old handle still denied" true (is_use_after_close (Kernel.call_handle kernel h1 []));
  check "new handle grants" true (Kernel.call_handle kernel h2 [] = Ok (Value.int 42))

let test_revocation_rechecks () =
  let kernel, ping, meta, alice = simple_fixture () in
  let h = open_exn kernel ~subject:alice ~caller:"t" ping in
  check "granted" true (Kernel.call_handle kernel h [] = Ok (Value.int 42));
  (* Revoke by ACL edit: the grant's chain generation drifts, the next
     call falls into the checked path and must deny. *)
  let open_acl = meta.Meta.acl in
  Meta.set_acl_raw meta
    (Acl.of_entries [ Acl.allow (Acl.Individual (Principal.individual "admin")) [ Access_mode.Execute ] ]);
  (match Kernel.call_handle kernel h [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "revoked handle granted"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Service.error_to_string e));
  (* Restore: the checked path re-admits and re-mints in place — the
     same handle value works again. *)
  Meta.set_acl_raw meta open_acl;
  check "re-granted after restore" true (Kernel.call_handle kernel h [] = Ok (Value.int 42));
  (* Epoch bump with the SAME policy still revokes the grant; the
     re-check must re-admit transparently. *)
  let monitor = Kernel.monitor kernel in
  Reference_monitor.set_policy monitor (Reference_monitor.policy monitor);
  check "granted across epoch bump" true (Kernel.call_handle kernel h [] = Ok (Value.int 42))

let test_unload_revokes_import_handles () =
  let kernel, ping, _meta, alice = simple_fixture () in
  let ext = Extension.make ~name:"caller" ~author:(Principal.individual "alice") ~imports:[ ping ] () in
  let linked =
    match Linker.link kernel ~subject:alice ext with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  check "import handle minted" true (Linker.Linked.import_handle linked ping <> None);
  check "import call grants" true (Linker.Linked.call_import linked ping [] = Ok (Value.int 42));
  (match Linker.unload kernel ~subject:alice "caller" with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  check "unload closed the import handle" true
    (is_use_after_close (Linker.Linked.call_import linked ping []));
  check "table empty again" true ((Kernel.handle_stats kernel).Handle.hs_live = 0)

(* {1 Removal retires the target}

   A handle pins the node it was minted on.  Removing that node touches
   its metadata, so the grant goes stale and the next call re-resolves:
   it answers exactly what a call by path answers, never the removed
   procedure. *)

let removal_fixture () =
  let kernel, _ping, _meta, alice = simple_fixture () in
  let admin_sub = Kernel.admin_subject kernel in
  let admin = Subject.principal admin_sub in
  let get = Path.of_string "/svc/get" in
  let publish tag acl =
    match
      Kernel.install_proc kernel ~subject:admin_sub get
        ~meta:(Meta.make ~owner:admin ~acl (Subject.effective_class alice))
        (Service.proc "get" 0 (Service.const (Value.str tag)))
    with
    | Ok () -> ()
    | Error e -> failwith (Service.error_to_string e)
  in
  let everyone modes = Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone modes ] in
  publish "old" (everyone [ Access_mode.List; Access_mode.Execute ]);
  let h = open_exn kernel ~subject:alice ~caller:"t" get in
  check "granted before removal" true (Kernel.call_handle kernel h [] = Ok (Value.str "old"));
  (match Resolver.remove (Kernel.resolver kernel) ~subject:admin_sub get with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "%a" Resolver.pp_denial e));
  kernel, alice, get, h, publish, everyone

let test_removed_target_unresolved () =
  let kernel, alice, get, h, _publish, _everyone = removal_fixture () in
  (match Kernel.call kernel ~subject:alice ~caller:"t" get [] with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "path call after removal should be Unresolved");
  match Kernel.call_handle kernel h [] with
  | Error (Service.Unresolved _) -> ()
  | Ok _ -> Alcotest.fail "the handle still ran the removed procedure"
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e)

let test_republished_target_denied () =
  let kernel, alice, get, h, publish, everyone = removal_fixture () in
  publish "new" (everyone [ Access_mode.List ]);
  (match Kernel.call kernel ~subject:alice ~caller:"t" get [] with
  | Error (Service.Denied { mode = Access_mode.Execute; _ }) -> ()
  | _ -> Alcotest.fail "path call to the republished target should be denied");
  match Kernel.call_handle kernel h [] with
  | Error (Service.Denied { mode = Access_mode.Execute; _ }) -> ()
  | Ok v -> Alcotest.failf "the handle still granted: %a" Value.pp v
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e)

(* {1 Allocation regression}

   Same discipline as the compiled-ACL pin: the boxes [Gc.minor_words]
   itself allocates are identical between the empty baseline and the
   measured run, so equal deltas mean the loop allocated exactly zero
   words.  The procedure returns a preallocated result — the pin is on
   the dispatch machinery, not the payload. *)

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let test_call_handle_allocates_nothing () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let ping = Path.of_string "/svc/ping" in
  let pong = Ok Value.unit in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) ping
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "ping" 0 (fun _ctx _args -> pong))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice_sub = Subject.make alice (Security_class.bottom hierarchy universe) in
  let h = open_exn kernel ~subject:alice_sub ~caller:"t" ping in
  let run () =
    for _ = 1 to 10_000 do
      ignore (Kernel.call_handle kernel h [])
    done
  in
  run ();
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta run in
  Alcotest.(check (float 0.)) "granted hot path words" baseline measured

(* {1 Membership edits revoke only the grants they move}

   A grant keys on its subject's own row: an edit that moves somebody
   else keeps it, and one that moves the subject (or registers anybody)
   sends the next call through the checked, audited path. *)

let reminted () = Exsec_obs.Metrics.value (Exsec_obs.Metrics.counter "handle.reminted")
let audit_total kernel = Audit.total (Reference_monitor.audit (Kernel.monitor kernel))
let audit_denied kernel = Audit.denied_total (Reference_monitor.audit (Kernel.monitor kernel))

(* admin, alice, bob and carol registered, [group] registered with the
   named [members] (one edit each, or one [batched] import);
   /svc/team carries [acl group]; alice calls. *)
let group_fixture ?(batched = false) ~group ~members acl =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let import () =
    List.iter (Principal.Db.add_individual db)
      [ admin; alice; Principal.individual "bob"; Principal.individual "carol" ];
    Principal.Db.add_group db group;
    List.iter
      (fun name -> Principal.Db.add_member db group (Principal.Ind (Principal.individual name)))
      members
  in
  if batched then Principal.Db.batch db import else import ();
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let team = Path.of_string "/svc/team" in
  let pong = Ok (Value.int 1) in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) team
       ~meta:(Meta.make ~owner:admin ~acl:(acl group) (Security_class.bottom hierarchy universe))
       (Service.proc "team" 0 (fun _ctx _args -> pong))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  db, kernel, team, Subject.make alice (Security_class.bottom hierarchy universe)

let group_only group =
  Acl.of_entries [ Acl.allow (Acl.Group group) [ Access_mode.List; Access_mode.Execute ] ]

let deny_group group =
  Acl.of_entries
    [
      Acl.deny (Acl.Group group) [ Access_mode.Execute ];
      Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
    ]

let join db group subject = Principal.Db.add_member db group (Principal.Ind (Subject.principal subject))

let denied_by group = function
  | Error (Service.Denied { denial = Decision.Dac_explicit_deny (Acl.Group g); _ }) ->
    Principal.equal_group g group
  | Ok _ | Error _ -> false

let test_unrelated_edit_keeps_grant () =
  let was = Exsec_obs.Metrics.enabled () in
  Exsec_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Exsec_obs.Metrics.set_enabled was) (fun () ->
      let staff = Principal.group "staff" in
      let db, kernel, team, alice = group_fixture ~group:staff ~members:[ "alice" ] group_only in
      let h = open_exn kernel ~subject:alice ~caller:"t" team in
      check "granted" true (Kernel.call_handle kernel h [] = Ok (Value.int 1));
      let reminted0 = reminted () and audit0 = audit_total kernel in
      Principal.Db.add_member db staff (Principal.Ind (Principal.individual "bob"));
      check "still granted" true (Kernel.call_handle kernel h [] = Ok (Value.int 1));
      Alcotest.(check int) "no re-mint" reminted0 (reminted ());
      Alcotest.(check int) "no audited decision" audit0 (audit_total kernel))

(* A batched import builds each group's closure once and gives it, the
   very array, to every individual whose only direct group it is.  A
   grant keys on its own subject's row, so a third member joining
   keeps both grants, and nesting the team moves both rows and
   re-checks both handles once each. *)
let test_shared_row_keeps_grants () =
  let was = Exsec_obs.Metrics.enabled () in
  Exsec_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Exsec_obs.Metrics.set_enabled was) (fun () ->
      let team = Principal.group "team" in
      let db, kernel, path, alice =
        group_fixture ~batched:true ~group:team ~members:[ "alice"; "bob" ] group_only
      in
      let bob = Subject.make (Principal.individual "bob") (Subject.clearance alice) in
      let row subject =
        let snap = Principal.Db.snapshot db in
        Principal.Db.Snapshot.row snap ~individual_id:(Subject.individual_id subject snap)
      in
      check "one row for both members" true (row alice == row bob);
      let h_alice = open_exn kernel ~subject:alice ~caller:"t" path in
      let h_bob = open_exn kernel ~subject:bob ~caller:"t" path in
      let both_serve () =
        Kernel.call_handle kernel h_alice [] = Ok (Value.int 1)
        && Kernel.call_handle kernel h_bob [] = Ok (Value.int 1)
      in
      check "both granted" true (both_serve ());
      let reminted0 = reminted () and audit0 = audit_total kernel in
      Principal.Db.add_member db team (Principal.Ind (Principal.individual "carol"));
      check "both still granted" true (both_serve ());
      Alcotest.(check int) "a third member re-mints nothing" reminted0 (reminted ());
      Alcotest.(check int) "a third member audits nothing" audit0 (audit_total kernel);
      check "the two still share their row" true (row alice == row bob);
      Principal.Db.add_member db (Principal.group "dept") (Principal.Grp team);
      check "granted after the nesting" true (both_serve ());
      Alcotest.(check int) "the nesting re-checks both handles" (reminted0 + 2) (reminted ());
      check "through the audited path" true (audit_total kernel > audit0);
      let snap = Principal.Db.snapshot db in
      List.iter
        (fun ind ->
          List.iter
            (fun grp ->
              check
                (Printf.sprintf "row of %s says %s as the live walk does"
                   (Principal.individual_name ind) (Principal.group_name grp))
                (Principal.Db.is_member db ind grp)
                (Principal.Db.Snapshot.is_member snap
                   ~individual_id:(Principal.Db.Snapshot.individual_id snap ind)
                   ~group_id:(Principal.Db.Snapshot.group_id snap grp)))
            (Principal.Db.groups db))
        (Principal.Db.individuals db))

let test_call_handle_after_edit_allocates_nothing () =
  let staff = Principal.group "staff" in
  let db, kernel, team, alice = group_fixture ~group:staff ~members:[ "alice" ] group_only in
  let h = open_exn kernel ~subject:alice ~caller:"t" team in
  Principal.Db.add_member db staff (Principal.Ind (Principal.individual "bob"));
  (* The warm-up call may pay the snapshot refresh. *)
  ignore (Kernel.call_handle kernel h []);
  let run () =
    for _ = 1 to 10_000 do
      ignore (Kernel.call_handle kernel h [])
    done
  in
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta run in
  Alcotest.(check (float 0.)) "granted words after an unrelated edit" baseline measured

let test_subject_into_deny_group_denied () =
  let blocked = Principal.group "blocked" in
  let db, kernel, team, alice = group_fixture ~group:blocked ~members:[ "bob" ] deny_group in
  let h = open_exn kernel ~subject:alice ~caller:"t" team in
  check "granted" true (Kernel.call_handle kernel h [] = Ok (Value.int 1));
  join db blocked alice;
  let denied0 = audit_denied kernel in
  check "checked call denied by the group" true
    (denied_by blocked (Kernel.call kernel ~subject:alice ~caller:"t" team []));
  Alcotest.(check int) "checked denial audited" (denied0 + 1) (audit_denied kernel);
  check "handle call denied by the group" true (denied_by blocked (Kernel.call_handle kernel h []));
  Alcotest.(check int) "handle denial audited" (denied0 + 2) (audit_denied kernel)

let test_registered_group_starts_to_bite () =
  (* The "compiles away" rule: the ACL names [late] before it is
     registered, so it decides for nobody; once it is registered with
     alice in it (a group registration recompiles the form), it denies
     her, by path and through the handle opened before. *)
  let blocked = Principal.group "blocked" and late = Principal.group "late" in
  let db, kernel, team, alice =
    group_fixture ~group:blocked ~members:[ "bob" ] (fun _ -> deny_group late)
  in
  let h = open_exn kernel ~subject:alice ~caller:"t" team in
  check "unregistered group compiles away" true (Kernel.call_handle kernel h [] = Ok (Value.int 1));
  join db late alice;
  check "registered group denies the path call" true
    (denied_by late (Kernel.call kernel ~subject:alice ~caller:"t" team []));
  check "and the handle" true (denied_by late (Kernel.call_handle kernel h []))

(* Principals an ACL names before they register.  The ACL allows the
   individual [ghost] and denies the group [late] while neither is
   registered: ghost is matched by name, late compiles away.
   Registering a bystander keeps the compiled form and every live
   grant; registering ghost still grants it, now under its id;
   registering late with alice in it denies her, naming late.  Each
   step is checked through the monitor and through a live handle. *)
let test_principal_named_before_registering () =
  let was = Exsec_obs.Metrics.enabled () in
  Exsec_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Exsec_obs.Metrics.set_enabled was) (fun () ->
      let crew = Principal.group "crew" and late = Principal.group "late" in
      let others = Principal.group "others" in
      let ghost = Principal.individual "ghost" in
      let acl _ =
        Acl.of_entries
          [
            Acl.allow (Acl.Individual ghost) [ Access_mode.List; Access_mode.Execute ];
            Acl.deny (Acl.Group late) [ Access_mode.Execute ];
            Acl.allow (Acl.Group crew) [ Access_mode.List; Access_mode.Execute ];
            Acl.allow Acl.Everyone [ Access_mode.List ];
          ]
      in
      let db, kernel, team, alice = group_fixture ~group:crew ~members:[ "alice" ] acl in
      Principal.Db.add_member db others (Principal.Ind (Principal.individual "bob"));
      let ghost_sub = Subject.make ghost (Subject.clearance alice) in
      let meta =
        match Namespace.find (Kernel.namespace kernel) team with
        | Ok node -> Namespace.meta node
        | Error _ -> Alcotest.fail "no /svc/team"
      in
      let decide subject =
        Reference_monitor.decide (Kernel.monitor kernel) ~subject ~meta ~mode:Access_mode.Execute
      in
      let h_alice = open_exn kernel ~subject:alice ~caller:"t" team in
      let h_ghost = open_exn kernel ~subject:ghost_sub ~caller:"t" team in
      check "alice granted through crew" true (Decision.is_granted (decide alice));
      check "ghost granted by name" true (Decision.is_granted (decide ghost_sub));
      let form = Meta.compiled_acl meta ~db in
      Principal.Db.add_member db others (Principal.Ind (Principal.individual "bystander"));
      let reminted0 = reminted () and audit0 = audit_total kernel in
      check "alice's handle serves" true (Kernel.call_handle kernel h_alice [] = Ok (Value.int 1));
      check "ghost's handle serves" true (Kernel.call_handle kernel h_ghost [] = Ok (Value.int 1));
      Alcotest.(check int) "a bystander re-mints nothing" reminted0 (reminted ());
      Alcotest.(check int) "a bystander audits nothing" audit0 (audit_total kernel);
      check "a bystander keeps the form" true (Meta.compiled_acl meta ~db == form);
      Principal.Db.add_member db others (Principal.Ind ghost);
      check "ghost registered" true
        (Principal.Db.Snapshot.individual_id (Principal.Db.snapshot db) ghost >= 0);
      check "ghost still granted" true (Decision.is_granted (decide ghost_sub));
      check "ghost's handle still serves" true
        (Kernel.call_handle kernel h_ghost [] = Ok (Value.int 1));
      check "alice still granted" true (Kernel.call_handle kernel h_alice [] = Ok (Value.int 1));
      join db late alice;
      (match decide alice with
      | Decision.Denied (Decision.Dac_explicit_deny (Acl.Group g)) ->
        check "the denial names late" true (Principal.equal_group g late)
      | Decision.Denied _ | Decision.Granted -> Alcotest.fail "late did not deny alice");
      check "alice's handle denied by late" true (denied_by late (Kernel.call_handle kernel h_alice []));
      check "ghost unaffected" true (Kernel.call_handle kernel h_ghost [] = Ok (Value.int 1)))

let test_minted_inside_batch_denied_after () =
  let blocked = Principal.group "blocked" in
  let db, kernel, team, alice = group_fixture ~group:blocked ~members:[ "bob" ] deny_group in
  ignore (Principal.Db.snapshot db);
  let h =
    Kernel.batch_principals kernel (fun () ->
        join db blocked alice;
        let h = open_exn kernel ~subject:alice ~caller:"t" team in
        (* Inside the batch the published state still holds. *)
        check "granted inside the batch" true (Kernel.call_handle kernel h [] = Ok (Value.int 1));
        h)
  in
  let denied0 = audit_denied kernel in
  check "denied after the batch" true (denied_by blocked (Kernel.call_handle kernel h []));
  Alcotest.(check int) "denial audited" (denied0 + 1) (audit_denied kernel)

(* {1 Denial-mapping determinism}

   Service.error_of_denial is THE mapping from resolver refusals to
   service errors; every constructor must map deterministically, and
   the kernel's re-export must be the same mapping. *)

let test_denial_mapping_deterministic () =
  let p = Path.of_string "/svc/x" in
  let ghost = Principal.individual "ghost" in
  let decision_denials =
    [
      Decision.Dac_no_entry;
      Decision.Dac_explicit_deny (Acl.Individual ghost);
      Decision.Dac_explicit_deny Acl.Everyone;
      Decision.Mac_denied Mac.Read_up;
      Decision.Mac_denied Mac.Write_down;
      Decision.Mac_denied Mac.Blind_overwrite;
      Decision.Integrity_denied Integrity.Read_down;
      Decision.Integrity_denied Integrity.Write_up;
      Decision.Not_an_object;
      Decision.Path_denied "/svc";
    ]
  in
  List.iter
    (fun denial ->
      List.iter
        (fun mode ->
          let resolver_denial =
            Resolver.Denied { at = p; label = Path.to_string p; mode; denial }
          in
          let expected = Service.Denied { at = Path.to_string p; mode; denial } in
          check "Denied maps verbatim" true
            (Service.error_of_denial resolver_denial = expected);
          check "kernel re-export agrees" true
            (Kernel.error_of_denial resolver_denial = Service.error_of_denial resolver_denial))
        Access_mode.all)
    decision_denials;
  List.iter
    (fun error ->
      let resolver_denial = Resolver.Name_error error in
      let expected =
        Service.Unresolved (Format.asprintf "%a" Namespace.pp_error error)
      in
      check "Name_error maps to Unresolved" true
        (Service.error_of_denial resolver_denial = expected);
      check "mapping is stable" true
        (Service.error_of_denial resolver_denial = Service.error_of_denial resolver_denial))
    [
      Namespace.Not_found p;
      Namespace.Already_exists p;
      Namespace.Not_a_directory p;
      Namespace.Is_a_directory p;
      Namespace.Directory_not_empty p;
    ]

let suite =
  [
    Oracle.routes_case "handle = path under churn"
      ~routes:[ Oracle.Checked; Oracle.Handle; Oracle.Served_call; Oracle.Served_handle ]
      ~kinds:[ "set-acl"; "join"; "leave"; "policy"; "republish"; "close" ];
    Oracle.volume_case "differential probe volume" ~routes:[ Oracle.Handle; Oracle.Served_handle ];
    Alcotest.test_case "close denies" `Quick test_close_denies;
    Alcotest.test_case "slot reuse never grants" `Quick test_slot_reuse_never_grants;
    Alcotest.test_case "revocation rechecks and re-mints" `Quick test_revocation_rechecks;
    Alcotest.test_case "unload revokes import handles" `Quick
      test_unload_revokes_import_handles;
    Alcotest.test_case "removed target answers Unresolved" `Quick
      test_removed_target_unresolved;
    Alcotest.test_case "republished target denies the old handle" `Quick
      test_republished_target_denied;
    Alcotest.test_case "call_handle allocates nothing" `Quick
      test_call_handle_allocates_nothing;
    Alcotest.test_case "unrelated edit keeps the grant" `Quick test_unrelated_edit_keeps_grant;
    Alcotest.test_case "members sharing a row keep their grants" `Quick
      test_shared_row_keeps_grants;
    Alcotest.test_case "call_handle after an edit allocates nothing" `Quick
      test_call_handle_after_edit_allocates_nothing;
    Alcotest.test_case "subject joining a deny group is denied" `Quick
      test_subject_into_deny_group_denied;
    Alcotest.test_case "registered group starts to bite" `Quick
      test_registered_group_starts_to_bite;
    Alcotest.test_case "principal named before it registers" `Quick
      test_principal_named_before_registering;
    Alcotest.test_case "minted inside a batch, denied after it" `Quick
      test_minted_inside_batch_denied_after;
    Alcotest.test_case "denial mapping deterministic" `Quick
      test_denial_mapping_deterministic;
  ]
