(* Capability handles (Kernel.open_handle / call_handle): the
   differential handle≡path oracle, staleness and revocation
   regressions, the zero-allocation pin on the granted hot path, and
   the denial-mapping determinism contract.

   The oracle drives twin kernels built identically over one shared
   principal database and lattice: every probe executes the same
   (subject, object) invocation by path on one kernel and by handle on
   the other, and the two must return structurally identical results —
   across mid-stream ACL edits, group-membership churn, policy-epoch
   bumps and metadata mutation, all applied to both twins in
   lockstep.  Additionally, every handle-side denial must land a
   denied audit record: the fast path is never allowed to refuse (or
   grant) from cache silently. *)

open Exsec_core
open Exsec_extsys

let check = Alcotest.(check bool)

(* {1 The twin-kernel world} *)

let ind_names = [| "alice"; "bob"; "carol"; "dave"; "erin" |]
let grp_names = [| "staff"; "eng" |]
let n_objects = 6

let obj_path i = Path.of_string (Printf.sprintf "/svc/obj%d" i)

let classes hierarchy universe =
  [|
    Security_class.bottom hierarchy universe;
    Security_class.make
      (Level.of_name_exn hierarchy "organization")
      (Category.of_names universe [ "d1" ]);
    Security_class.top hierarchy universe;
  |]

type twin = {
  kernel : Kernel.t;
  metas : Meta.t array;  (* per-object target metadata *)
  dir_meta : Meta.t;  (* the /svc interior node *)
}

type world = {
  db : Principal.Db.t;
  subjects : Subject.t array;
  inds : Principal.individual array;
  grps : Principal.group array;
  path_side : twin;
  handle_side : twin;
  handles : (int * int, Handle.h) Hashtbl.t;
      (* open handles on the handle-side kernel, keyed by
         (subject index, object index); reopened on demand *)
}

let build_twin db hierarchy universe admin =
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let klasses = classes hierarchy universe in
  let metas =
    Array.init n_objects (fun i ->
        let meta =
          Meta.make ~owner:admin
            ~acl:
              (Acl.of_entries
                 [
                   Acl.allow_all (Acl.Individual admin);
                   Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
                 ])
            klasses.(i mod Array.length klasses)
        in
        (match
           Kernel.install_proc kernel ~subject:admin_sub (obj_path i) ~meta
             (Service.proc "obj" 0 (Service.const (Value.int i)))
         with
        | Ok () -> ()
        | Error e -> failwith (Service.error_to_string e));
        meta)
  in
  let dir_meta =
    match Namespace.find (Kernel.namespace kernel) (Path.of_string "/svc") with
    | Ok node -> Namespace.meta node
    | Error _ -> failwith "twin: /svc missing"
  in
  { kernel; metas; dir_meta }

let build_world () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let inds = Array.map Principal.individual ind_names in
  let grps = Array.map Principal.group grp_names in
  Array.iter (Principal.Db.add_individual db) inds;
  Array.iter (Principal.Db.add_group db) grps;
  let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
  let universe = Category.universe [ "d1"; "d2" ] in
  let klasses = classes hierarchy universe in
  let subjects =
    Array.mapi
      (fun i ind ->
        let integrity =
          if i mod 2 = 0 then Some klasses.(i mod Array.length klasses) else None
        in
        Subject.make ?integrity ind klasses.(i mod Array.length klasses))
      inds
  in
  {
    db;
    subjects;
    inds;
    grps;
    (* the twins share the db and lattice, so membership churn is
       identical on both by construction; everything else is mutated
       in lockstep below *)
    path_side = build_twin db hierarchy universe admin;
    handle_side = build_twin db hierarchy universe admin;
    handles = Hashtbl.create 32;
  }

(* {1 One probe: the same invocation by path and by handle} *)

let probes_total = ref 0

let handle_denied_total world =
  Audit.denied_total (Reference_monitor.audit (Kernel.monitor world.handle_side.kernel))

let probe world s o =
  incr probes_total;
  let subject = world.subjects.(s) in
  let path = obj_path o in
  let rp = Kernel.call world.path_side.kernel ~subject ~caller:"oracle" path [] in
  let denied_before = handle_denied_total world in
  let rh =
    match Hashtbl.find_opt world.handles (s, o) with
    | Some h -> Kernel.call_handle world.handle_side.kernel h []
    | None -> (
      match Kernel.open_handle world.handle_side.kernel ~subject ~caller:"oracle" path with
      | Error e -> Error e
      | Ok h ->
        Hashtbl.replace world.handles (s, o) h;
        Kernel.call_handle world.handle_side.kernel h [])
  in
  let agree = rp = rh in
  (* Any handle-side refusal must come out of the checked, audited
     path — silent denials would mean the fast path invented a verdict
     the reference monitor never saw. *)
  let audited =
    match rh with
    | Error (Service.Denied _) -> handle_denied_total world > denied_before
    | Ok _ | Error _ -> true
  in
  agree && audited

(* {1 Churn: applied to both twins in lockstep} *)

let acl_variants world =
  [|
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ];
    Acl.of_entries
      [
        Acl.allow (Acl.Group world.grps.(0)) [ Access_mode.List; Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ];
    Acl.of_entries
      [
        Acl.deny (Acl.Individual world.inds.(1)) [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ];
    Acl.of_entries
      [ Acl.allow (Acl.Individual world.inds.(0)) [ Access_mode.List; Access_mode.Execute ] ];
    (* no List: on the /svc node this turns every call into a
       traversal (Path_denied) refusal *)
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Execute ] ];
  |]

let policies =
  [| Policy.default; Policy.dac_only; Policy.mac_only; Policy.with_recheck Policy.default |]

(* Returns false only when an invariant checked inline (use-after-close
   is a deterministic denial) is violated. *)
let apply_churn world (kind, a, b) =
  match kind mod 5 with
  | 0 ->
    (* ACL edit on one object — or on the /svc interior node, which
       must invalidate every handle routed through it. *)
    let variants = acl_variants world in
    let acl = variants.(b mod Array.length variants) in
    let target = a mod (n_objects + 1) in
    if target = n_objects then begin
      Meta.set_acl_raw world.path_side.dir_meta acl;
      Meta.set_acl_raw world.handle_side.dir_meta acl
    end
    else begin
      Meta.set_acl_raw world.path_side.metas.(target) acl;
      Meta.set_acl_raw world.handle_side.metas.(target) acl
    end;
    true
  | 1 ->
    (* Group-membership churn; the shared db makes it identical on
       both sides by construction. *)
    let group = world.grps.(a mod Array.length world.grps) in
    let member = Principal.Ind world.inds.(b mod Array.length world.inds) in
    (try
       if b mod 2 = 0 then Principal.Db.add_member world.db group member
       else Principal.Db.remove_member world.db group member
     with Invalid_argument _ -> ());
    true
  | 2 ->
    (* Policy swap (epoch bump) — possibly to the same policy, which
       still must revoke every outstanding grant. *)
    let policy = policies.(b mod Array.length policies) in
    Reference_monitor.set_policy (Kernel.monitor world.path_side.kernel) policy;
    Reference_monitor.set_policy (Kernel.monitor world.handle_side.kernel) policy;
    true
  | 3 ->
    (* Metadata mutation: confidentiality class or integrity label. *)
    let target = a mod n_objects in
    let hierarchy = Kernel.hierarchy world.path_side.kernel in
    let universe = Kernel.universe world.path_side.kernel in
    let klasses = classes hierarchy universe in
    let klass = klasses.(b mod Array.length klasses) in
    if b mod 2 = 0 then begin
      Meta.set_klass_raw world.path_side.metas.(target) klass;
      Meta.set_klass_raw world.handle_side.metas.(target) klass
    end
    else begin
      let label = if b mod 4 = 1 then Some klass else None in
      Meta.set_integrity_raw world.path_side.metas.(target) label;
      Meta.set_integrity_raw world.handle_side.metas.(target) label
    end;
    true
  | _ ->
    (* Close a live handle; the oracle reopens on the next probe.  A
       closed handle must answer the use-after-close denial, never a
       grant and never a foreign result. *)
    let key = (a mod Array.length world.subjects, b mod n_objects) in
    (match Hashtbl.find_opt world.handles key with
    | None -> true
    | Some h ->
      Hashtbl.remove world.handles key;
      ignore (Kernel.close_handle world.handle_side.kernel h);
      (match Kernel.call_handle world.handle_side.kernel h [] with
      | Error (Service.Denied { denial = Decision.Not_an_object; _ }) -> true
      | Ok _ | Error _ -> false))

let prop_oracle =
  QCheck.Test.make ~name:"handle = path under churn" ~count:150
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun churn ->
      let world = build_world () in
      let ok = ref true in
      let sweep () =
        for s = 0 to Array.length world.subjects - 1 do
          for o = 0 to n_objects - 1 do
            if not (probe world s o) then ok := false
          done
        done
      in
      sweep ();
      List.iter
        (fun op ->
          if not (apply_churn world op) then ok := false;
          sweep ())
        churn;
      sweep ();
      !ok)

let test_probe_volume () =
  (* Runs after the QCheck case by suite order; the oracle must have
     executed the mandated >= 10k randomized probes. *)
  check "over 10k differential probes" true (!probes_total >= 10_000)

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
          let resolver_denial = Resolver.Denied { at = p; mode; denial } in
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
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "differential probe volume" `Quick test_probe_volume;
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
    Alcotest.test_case "denial mapping deterministic" `Quick
      test_denial_mapping_deterministic;
  ]
