(* The interprocedural chain analysis (Exsec_analysis.Chain_certify):
   classification of every reachable call site on the examples/chain
   fixture, the deterministic finding order the analyzer pins, the
   linker's consumption of chain proofs (pre-minted certificates and
   handles for provably-redundant transitive targets), and the
   analysis-vs-monitor differential oracle.

   The oracle drives twin kernels built identically over one shared
   principal database and clearance registry: both link the same
   two-extension chain (a imports /ext/b/fetch, whose body calls
   /svc/get), but one twin keeps the link-time chain certificates and
   the other has them revoked, so every call it serves goes through
   the full reference monitor.  Every probe executes the same
   (subject, caller, target) invocation on both and the results must
   be structurally identical — across ACL edits, group-membership
   churn, policy-epoch bumps, metadata relabels and re-certification,
   applied in lockstep.  Additionally every denial on the certified
   twin must land a denied audit record: the analysis is never allowed
   to refuse (or grant) silently. *)

open Exsec_core
open Exsec_extsys
module Verdict = Exsec_analysis.Verdict
module Certificate = Exsec_analysis.Certificate
module Finding = Exsec_analysis.Finding
module Analyzer = Exsec_analysis.Analyzer
module Chain_certify = Exsec_analysis.Chain_certify

let check = Alcotest.(check bool)

(* {1 The fixture: one chain per verdict class} *)

let fixture_text =
  (* cwd is the stanza dir under [dune runtest], the workspace root
     under [dune exec] — accept either. *)
  let path =
    if Sys.file_exists "../examples/chain.policy" then "../examples/chain.policy"
    else "examples/chain.policy"
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture_report () =
  let report = Analyzer.analyze_text fixture_text in
  match report.Analyzer.built with
  | None -> Alcotest.fail "chain.policy does not build"
  | Some built -> report, Analyzer.analyze_chains ~built ()

let classification_of chain target =
  match
    List.find_opt
      (fun sr -> String.equal sr.Chain_certify.sr_target target)
      chain.Chain_certify.sites
  with
  | Some sr -> Chain_certify.classification_to_string sr.Chain_certify.sr_classification
  | None -> Alcotest.failf "site %s not reported" target

let test_fixture_classification () =
  let _, chain = fixture_report () in
  (* Every declared callable is a reachable site, path-sorted. *)
  Alcotest.(check (list string)) "all reachable sites"
    [
      "/svc/gateway"; "/svc/gateway/ping"; "/svc/reports"; "/svc/reports/run";
      "/svc/vault"; "/svc/vault/purge";
    ]
    (List.map (fun sr -> sr.Chain_certify.sr_target) chain.Chain_certify.sites);
  Alcotest.(check string) "gateway" "provably-redundant" (classification_of chain "/svc/gateway");
  Alcotest.(check string) "ping" "provably-redundant" (classification_of chain "/svc/gateway/ping");
  Alcotest.(check string) "vault" "provably-redundant" (classification_of chain "/svc/vault");
  Alcotest.(check string) "purge is a dead edge" "provably-denied"
    (classification_of chain "/svc/vault/purge");
  Alcotest.(check string) "run depends on the session" "runtime-dependent"
    (classification_of chain "/svc/reports/run");
  (* Each site is reached by every registered principal exactly once. *)
  List.iter
    (fun sr ->
      Alcotest.(check int)
        (sr.Chain_certify.sr_target ^ " contexts") 3
        (List.length sr.Chain_certify.sr_contexts))
    chain.Chain_certify.sites;
  Alcotest.(check int) "four pre-mintable targets" 4
    (List.length (Chain_certify.redundant_targets chain));
  (* The dead edge is the one Error; the CI gate trips on it. *)
  let errors = List.filter (fun f -> f.Finding.severity = Finding.Error) chain.Chain_certify.findings in
  Alcotest.(check int) "one error" 1 (List.length errors);
  List.iter
    (fun f ->
      check "error is the dead edge" true
        (f.Finding.kind = Finding.Chain_denied && f.Finding.path = Some "/svc/vault/purge"))
    errors;
  (* batch's write grant exceeds what any chain can exercise. *)
  check "over-privilege names batch" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Over_privilege
         && f.Finding.path = Some "/svc/reports/run"
         && f.Finding.principal = Some "batch")
       chain.Chain_certify.findings)

(* {1 Deterministic output order (and the JSON golden)} *)

let test_normalize_golden () =
  (* Scrambled, with a structural duplicate: normalize must dedupe and
     impose severity-descending, then path/principal/kind/message. *)
  let findings =
    [
      Finding.make Finding.Info Finding.Chain_redundant ~path:"/svc/b" "m2";
      Finding.make Finding.Warning Finding.Over_privilege ~path:"/svc/b" ~principal:"eve" "m3";
      Finding.make Finding.Info Finding.Chain_redundant ~path:"/svc/b" "m2";
      Finding.make Finding.Error Finding.Chain_denied ~path:"/svc/a" "m1";
    ]
  in
  let normalized = Finding.normalize findings in
  Alcotest.(check int) "duplicate dropped" 3 (List.length normalized);
  Alcotest.(check string) "golden JSON"
    ("{\"findings\":["
    ^ "{\"severity\":\"error\",\"kind\":\"chain-denied\",\"path\":\"/svc/a\",\"message\":\"m1\"},"
    ^ "{\"severity\":\"warning\",\"kind\":\"over-privilege\",\"path\":\"/svc/b\",\"principal\":\"eve\",\"message\":\"m3\"},"
    ^ "{\"severity\":\"info\",\"kind\":\"chain-redundant\",\"path\":\"/svc/b\",\"message\":\"m2\"}"
    ^ "],\"counts\":{\"error\":1,\"warning\":1,\"info\":1}}")
    (Finding.to_json normalized);
  (* Idempotence: normalizing a normalized list is the identity. *)
  check "idempotent" true (Finding.normalize normalized = normalized)

let test_report_order_stable () =
  let report1, chain1 = fixture_report () in
  let report2, chain2 = fixture_report () in
  let merged report chain =
    Finding.to_json
      ~extra:[ "chains", Chain_certify.sites_to_json chain ]
      (Finding.normalize (report.Analyzer.findings @ chain.Chain_certify.findings))
  in
  (* Two analyses of the same text render byte-identical JSON, and the
     analyzer's own report already carries the normalized order. *)
  Alcotest.(check string) "stable across runs" (merged report1 chain1) (merged report2 chain2);
  check "analyzer report is normalized" true
    (report1.Analyzer.findings = Finding.normalize report1.Analyzer.findings);
  check "chain findings are normalized" true
    (chain1.Chain_certify.findings = Finding.normalize chain1.Chain_certify.findings)

(* {1 Link-time consumption: pre-minted certificates and handles}

   b provides fetch, whose body calls /svc/get; a imports /ext/b/fetch
   only.  Nested calls carry the original caller's name, so the inner
   /svc/get check consults a's certificate — the chain analysis proves
   it redundant and the linker folds it in and pre-mints a handle. *)

let store = Path.of_string "/svc/get"
let fetch = Path.of_string "/ext/b/fetch"

let boot_chain_world () =
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
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup get: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let link_ok ext =
    match Linker.link kernel ~subject:alice_sub ext with
    | Ok linked -> linked
    | Error e -> Alcotest.failf "link: %a" Linker.pp_link_error e
  in
  let b =
    link_ok
      (Extension.make ~name:"b" ~author:alice ~imports:[ store ]
         ~provides:
           [
             Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []);
           ]
         ())
  in
  let a = link_ok (Extension.make ~name:"a" ~author:alice ~imports:[ fetch ] ()) in
  kernel, alice_sub, b, a

let test_linker_preminted_chain () =
  let kernel, alice_sub, b, a = boot_chain_world () in
  (* b imports /svc/get directly: nothing transitive to pre-mint. *)
  check "b has no chain targets" true (Linker.Linked.chain_imports b = []);
  (* a never imported /svc/get, but the analysis proved the nested call
     redundant: certificate widened, handle pre-minted. *)
  Alcotest.(check (list string)) "a's chain targets" [ "/svc/get" ]
    (List.map Path.to_string (Linker.Linked.chain_imports a));
  check "handle pre-minted" true (Linker.Linked.chain_handle a store <> None);
  let certificate = Option.get (Linker.Linked.certificate a) in
  check "chain proof folded into the certificate" true
    (match Certificate.verdict_for certificate store with
    | Some verdict -> Verdict.equal verdict Verdict.Always_allow
    | None -> false);
  check "still fully certified" true (Certificate.fully_certified certificate);
  (* The pre-minted handle is the 45ns path to the transitive target. *)
  check "chain call serves" true (Linker.Linked.call_chain a store [] = Ok (Value.int 7));
  (* Direct imports are not chain targets; the chain table refuses. *)
  (match Linker.Linked.call_chain a fetch [] with
  | Error (Service.Unresolved _) -> ()
  | _ -> Alcotest.fail "direct import served from the chain table");
  (* The outer fetch is served from a's proved import handle, with no
     monitor entry; the inner get goes through ctx.call, which is the
     checked Kernel.call — audited exactly like a direct call. *)
  let total () = Audit.total (Reference_monitor.audit (Kernel.monitor kernel)) in
  (match Linker.Linked.call a ~subject:alice_sub fetch [] with
  | Ok (Value.Int 7) -> ()
  | Ok _ -> Alcotest.fail "wrong relay value"
  | Error e -> Alcotest.failf "relay: %s" (Service.error_to_string e));
  let t0 = total () in
  (match Linker.Linked.call a ~subject:alice_sub fetch [] with
  | Ok (Value.Int 7) -> ()
  | _ -> Alcotest.fail "relay broke");
  let relay_records = total () - t0 in
  let t1 = total () in
  ignore (Kernel.call kernel ~subject:alice_sub ~caller:"a" store []);
  Alcotest.(check int) "only the nested hop is audited" (total () - t1) relay_records

(* {1 The twin-kernel differential oracle} *)

let oracle_relay = Path.of_string "/ext/a/relay"

type otwin = {
  kernel : Kernel.t;
  store_meta : Meta.t;
  fetch_meta : Meta.t;
  svc_meta : Meta.t;
}

type oworld = {
  db : Principal.Db.t;
  registry : Clearance.t;
  inds : Principal.individual array;
  grps : Principal.group array;
  subjects : Subject.t array;
  cert_side : otwin;  (* chain certificates live *)
  full_side : otwin;  (* certificates revoked: every call fully checked *)
}

let oclasses hierarchy universe =
  [|
    Security_class.bottom hierarchy universe;
    Security_class.make
      (Level.of_name_exn hierarchy "organization")
      (Category.of_names universe [ "d1" ]);
    Security_class.top hierarchy universe;
  |]

let build_otwin db registry hierarchy universe admin inds ~certified =
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ~registry ~db ~admin ~hierarchy ~universe ()
  in
  let store_meta = Kernel.default_meta kernel ~owner:admin () in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store
       ~meta:store_meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice = inds.(0) in
  let alice_sub =
    Subject.make alice (Option.get (Clearance.clearance_of registry alice))
  in
  let link ext =
    match Linker.link kernel ~subject:alice_sub ext with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  link
    (Extension.make ~name:"b" ~author:alice ~imports:[ store ]
       ~provides:
         [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
       ());
  link
    (Extension.make ~name:"a" ~author:alice ~imports:[ fetch ]
       ~provides:
         [ Extension.provided "relay" 0 (fun ctx _args -> ctx.Service.call fetch []) ]
       ());
  if not certified then begin
    Kernel.revoke_certificate kernel "a";
    Kernel.revoke_certificate kernel "b"
  end;
  let meta_at path =
    match Namespace.find (Kernel.namespace kernel) (Path.of_string path) with
    | Ok node -> Namespace.meta node
    | Error _ -> failwith ("oracle twin: " ^ path ^ " missing")
  in
  { kernel; store_meta; fetch_meta = meta_at "/ext/b/fetch"; svc_meta = meta_at "/svc" }

let build_oworld () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let inds = Array.map Principal.individual [| "alice"; "bob"; "carol"; "mallory" |] in
  Array.iter (Principal.Db.add_individual db) inds;
  let grps = Array.map Principal.group [| "staff"; "eng" |] in
  Array.iter (Principal.Db.add_group db) grps;
  let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
  let universe = Category.universe [ "d1"; "d2" ] in
  let klasses = oclasses hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin klasses.(2);
  (* mallory stays unregistered: outside every certificate's cover. *)
  Clearance.register registry inds.(0) klasses.(1);
  Clearance.register registry inds.(1) klasses.(0);
  Clearance.register registry inds.(2) klasses.(2);
  let subjects =
    [|
      Subject.make inds.(0) klasses.(1);
      Subject.make inds.(0) klasses.(0);  (* a high-cleared user working low *)
      Subject.make inds.(1) klasses.(0);
      Subject.make inds.(2) klasses.(2);
      Subject.make inds.(3) klasses.(0);
    |]
  in
  {
    db;
    registry;
    inds;
    grps;
    subjects;
    cert_side = build_otwin db registry hierarchy universe admin inds ~certified:true;
    full_side = build_otwin db registry hierarchy universe admin inds ~certified:false;
  }

let probes_total = ref 0
let fast_probes = ref 0

let cert_denied_total world =
  Audit.denied_total (Reference_monitor.audit (Kernel.monitor world.cert_side.kernel))

let probe world subject caller target =
  incr probes_total;
  let rf = Kernel.call world.full_side.kernel ~subject ~caller target [] in
  let denied_before = cert_denied_total world in
  if Kernel.certificate_admits world.cert_side.kernel ~caller ~subject target then
    incr fast_probes;
  let rc = Kernel.call world.cert_side.kernel ~subject ~caller target [] in
  let agree = rf = rc in
  (* A refusal on the certified side must come out of the checked,
     audited path — the analysis never invents a verdict silently. *)
  let audited =
    match rc with
    | Error (Service.Denied _) -> cert_denied_total world > denied_before
    | Ok _ | Error _ -> true
  in
  agree && audited

(* {2 Churn: applied to both twins in lockstep} *)

let oracle_acls world =
  let alice = world.inds.(0) and bob = world.inds.(1) in
  [|
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ];
    Acl.of_entries
      [
        Acl.allow (Acl.Group world.grps.(0)) [ Access_mode.List; Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ];
    Acl.of_entries
      [
        Acl.deny (Acl.Individual bob) [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ];
    Acl.of_entries [ Acl.allow (Acl.Individual alice) [ Access_mode.List; Access_mode.Execute ] ];
    (* no Execute anywhere: every call becomes a refusal *)
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ];
  |]

let oracle_policies =
  [|
    Policy.with_recheck Policy.default;
    Policy.default;
    Policy.dac_only;
    Policy.mac_only;
  |]

let twin_metas world = function
  | 0 -> world.cert_side.store_meta, world.full_side.store_meta
  | 1 -> world.cert_side.fetch_meta, world.full_side.fetch_meta
  | _ -> world.cert_side.svc_meta, world.full_side.svc_meta

(* Re-issue the link-time proofs on the certified side only — exactly
   what a re-link does — so churn does not leave the fast path
   permanently dark for the rest of the run. *)
let recertify world =
  List.iter
    (fun (name, imports) ->
      let kernel = world.cert_side.kernel in
      let certificate =
        Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry:world.registry
          ~namespace:(Kernel.namespace kernel) ~extension:name ~imports ()
      in
      Kernel.note_certificate kernel certificate)
    [ "b", [ store ]; "a", [ fetch; store ] ]

let apply_churn world (kind, a, b) =
  match kind mod 5 with
  | 0 ->
    let variants = oracle_acls world in
    let acl = variants.(b mod Array.length variants) in
    let cert_meta, full_meta = twin_metas world (a mod 3) in
    Meta.set_acl_raw cert_meta acl;
    Meta.set_acl_raw full_meta acl
  | 1 ->
    let group = world.grps.(a mod Array.length world.grps) in
    let member = Principal.Ind world.inds.(b mod Array.length world.inds) in
    (* the shared db makes membership churn identical on both sides *)
    (try
       if b mod 2 = 0 then Principal.Db.add_member world.db group member
       else Principal.Db.remove_member world.db group member
     with Invalid_argument _ -> ())
  | 2 ->
    let policy = oracle_policies.(b mod Array.length oracle_policies) in
    Reference_monitor.set_policy (Kernel.monitor world.cert_side.kernel) policy;
    Reference_monitor.set_policy (Kernel.monitor world.full_side.kernel) policy
  | 3 ->
    let hierarchy = Kernel.hierarchy world.cert_side.kernel in
    let universe = Kernel.universe world.cert_side.kernel in
    let klasses = oclasses hierarchy universe in
    let klass = klasses.(b mod Array.length klasses) in
    let cert_meta, full_meta = twin_metas world (a mod 3) in
    if b mod 2 = 0 then begin
      Meta.set_klass_raw cert_meta klass;
      Meta.set_klass_raw full_meta klass
    end
    else begin
      let label = if b mod 4 = 1 then Some klass else None in
      Meta.set_integrity_raw cert_meta label;
      Meta.set_integrity_raw full_meta label
    end
  | _ -> recertify world

let oracle_targets = [ store; fetch; oracle_relay ]
let oracle_callers = [ "a"; "probe" ]

let prop_oracle =
  QCheck.Test.make ~name:"chain analysis = full monitor under churn" ~count:150
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun churn ->
      let world = build_oworld () in
      let ok = ref true in
      let sweep () =
        Array.iter
          (fun subject ->
            List.iter
              (fun caller ->
                List.iter
                  (fun target ->
                    if not (probe world subject caller target) then ok := false)
                  oracle_targets)
              oracle_callers)
          world.subjects
      in
      sweep ();
      List.iter
        (fun op ->
          apply_churn world op;
          sweep ())
        churn;
      sweep ();
      !ok)

let test_probe_volume () =
  (* Runs after the QCheck case by suite order; the oracle must have
     executed the mandated >= 10k randomized probes, and the analysis
     fast path must actually have served some of them. *)
  check "over 10k differential probes" true (!probes_total >= 10_000);
  check "analysis-admitted calls exercised" true (!fast_probes > 0)

let suite =
  [
    Alcotest.test_case "fixture: one chain per verdict class" `Quick
      test_fixture_classification;
    Alcotest.test_case "normalize golden (dedupe + order + JSON)" `Quick
      test_normalize_golden;
    Alcotest.test_case "report order stable across runs" `Quick test_report_order_stable;
    Alcotest.test_case "linker pre-mints proved chain targets" `Quick
      test_linker_preminted_chain;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "differential probe volume" `Quick test_probe_volume;
  ]
