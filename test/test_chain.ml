(* The interprocedural chain analysis (Exsec_analysis.Chain_certify):
   classification of every reachable call site on the examples/chain
   fixture, the deterministic finding order the analyzer pins, the
   linker's consumption of chain proofs (pre-minted certificates and
   handles for provably-redundant transitive targets), and the worklist
   held to the reference fixpoint on random graphs.  The reference
   oracle (oracle.ml) holds every chain-handle and proved call to the
   interpreted monitor under churn. *)

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
   only.  The chain analysis proves the inner /svc/get call redundant:
   the linker folds it into a's certificate and pre-mints a handle for
   it, decided by the monitor under a's link-time subject. *)

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
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
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

(* {1 A link skips only an analysis that could add nothing}

   One kernel holds every shape a link meets: plain importers, a
   domain importer, relays (providing a proc that calls /svc/get, or
   one that calls /svc/vault, which alice may not call), users of
   each, a two-hop user (its relay's provide calls another relay's
   provide), a user pinned at bottom and a handler.  Right after each
   link the reference runs the full chain analysis over the
   extension's call graph, every registered principal entering at its
   static class, drops the link's own imports and keeps the targets a
   certificate proves: that must be the link's chain imports, and
   it must be empty wherever [Callgraph.reaches_only] lets the linker
   skip the analysis. *)

let test_link_skips_only_empty_analyses () =
  let module Cg = Exsec_analysis.Callgraph in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  List.iter (Principal.Db.add_individual db) [ admin; alice; bob ];
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let top = Security_class.top hierarchy universe in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin top;
  Clearance.register registry alice bottom;
  Clearance.register registry bob top;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let setup what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "setup %s: %s" what (Service.error_to_string e)
  in
  let seven = Service.proc "get" 0 (Service.const (Value.int 7)) in
  setup "get"
    (Kernel.install_proc kernel ~subject:admin_sub store
       ~meta:(Kernel.default_meta kernel ~owner:admin ()) seven);
  let vault = Path.of_string "/svc/vault" in
  setup "vault"
    (Kernel.install_proc kernel ~subject:admin_sub vault
       ~meta:
         (Meta.make ~owner:admin
            ~acl:
              (Acl.of_entries
                 [
                   Acl.allow_all (Acl.Individual admin);
                   Acl.allow (Acl.Individual bob) [ Access_mode.List; Access_mode.Execute ];
                   Acl.allow Acl.Everyone [ Access_mode.List ];
                 ])
            bottom)
       seven);
  let mount = Path.of_string "/svc/math" in
  setup "math"
    (Kernel.install_iface kernel ~subject:admin_sub ~mount
       ~meta:(fun _ -> Kernel.default_meta kernel ~owner:admin ())
       (Iface.make "math" [ Iface.proc_sig "one" 0; Iface.proc_sig "two" 0 ])
       (fun _ -> Service.const (Value.int 1)));
  let hook = Path.of_string "/svc/hook" in
  setup "hook"
    (Kernel.install_event kernel ~subject:admin_sub hook
       ~meta:
         (Meta.make ~owner:admin
            ~acl:
              (Acl.of_entries
                 [
                   Acl.allow_all (Acl.Individual admin);
                   Acl.allow Acl.Everyone
                     [ Access_mode.List; Access_mode.Execute; Access_mode.Extend ];
                 ])
            bottom));
  let alice_sub = Subject.make alice bottom and bob_sub = Subject.make bob top in
  let relay target = [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call target []) ] in
  let fetch_of name = Path.of_string ("/ext/" ^ name ^ "/fetch") in
  let math = Domain.make "math" [ mount ] in
  let pinned = Some bottom in
  (* Name, link subject, static class, imports, domains, provides,
     extends; whether the linker may skip the analysis; how many chain
     imports the link must hold. *)
  let shapes =
    [
      "plain0", alice_sub, None, [ store ], [], [], [], true, 0;
      "plain1", alice_sub, None, [ store ], [], [], [], true, 0;
      "dom", alice_sub, None, [], [ math ], [], [], true, 0;
      "r1", alice_sub, None, [ store ], [], relay store, [], true, 0;
      "rvault", bob_sub, None, [ vault ], [], relay vault, [], true, 0;
      "r2", alice_sub, None, [ fetch_of "r1" ], [], relay (fetch_of "r1"), [], false, 1;
      "u1", alice_sub, None, [ fetch_of "r1" ], [], [], [], false, 1;
      "uvault", bob_sub, None, [ fetch_of "rvault" ], [], [], [], false, 0;
      "u2", alice_sub, None, [ fetch_of "r2" ], [], [], [], false, 2;
      "upin", bob_sub, pinned, [ fetch_of "r1" ], [], [], [], false, 1;
      ( "hnd", alice_sub, None, [], [], [], [ Extension.extends hook (Service.const Value.unit) ],
        true, 0 );
    ]
  in
  let reference linked =
    let extension = Linker.Linked.extension linked in
    let graph = Kernel.call_graph kernel extension in
    let entries =
      List.map
        (fun principal ->
          {
            Cg.entry_principal = principal;
            entry_node = Cg.code_node (Linker.Linked.name linked);
            entry_cap = extension.Extension.static_class;
          })
        (Clearance.registered registry)
    in
    let report =
      Chain_certify.analyze ~db ~registry
        ~policy:(Reference_monitor.policy (Kernel.monitor kernel))
        (Cg.with_entries graph entries)
    in
    let targets =
      List.filter
        (fun target -> not (List.exists (Path.equal target) (Linker.Linked.imports linked)))
        (Chain_certify.redundant_targets report)
    in
    (* Proved by a certificate of its own, so the reference does not
       read what the link proved. *)
    let certificate =
      Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry
        ~namespace:(Kernel.namespace kernel) ?static_class:extension.Extension.static_class
        ~extension:"reference" ~imports:targets ()
    in
    List.filter
      (fun target -> Certificate.verdict_for certificate target = Some Verdict.Always_allow)
      targets
  in
  let skipped linked =
    Cg.reaches_only
      (Kernel.call_graph kernel (Linker.Linked.extension linked))
      ~from:(Cg.code_node (Linker.Linked.name linked))
      ~sites:(Linker.Linked.imports linked)
  in
  let rendered paths = List.sort compare (List.map Path.to_string paths) in
  let linked =
    List.map
      (fun (name, subject, static_class, imports, import_domains, provides, extends, skip, n) ->
        let ext =
          Extension.make ~name ~author:(Subject.principal subject) ?static_class ~imports
            ~import_domains ~provides ~extends ()
        in
        let linked =
          match Linker.link kernel ~subject ext with
          | Ok linked -> linked
          | Error e -> Alcotest.failf "link %s: %a" name Linker.pp_link_error e
        in
        let expected = reference linked in
        Alcotest.(check (list string))
          (name ^ ": chain imports = the analysis' proved targets")
          (rendered expected)
          (rendered (Linker.Linked.chain_imports linked));
        Alcotest.(check int) (name ^ ": chain imports") n (List.length expected);
        Alcotest.(check bool) (name ^ ": skipped") skip (skipped linked);
        if skip then Alcotest.(check (list string)) (name ^ ": nothing to add") [] (rendered expected);
        name, linked)
      shapes
  in
  (* The two-hop user reaches the first relay's provide and its call. *)
  Alcotest.(check (list string))
    "u2's chain imports" [ "/ext/r1/fetch"; "/svc/get" ]
    (rendered (Linker.Linked.chain_imports (List.assoc "u2" linked)));
  (* A proc published into an imported domain after the link is a call
     target outside the link's imports: that graph is not skipped. *)
  setup "three"
    (Kernel.install_proc kernel ~subject:admin_sub (Path.child mount "three")
       ~meta:(Kernel.default_meta kernel ~owner:admin ()) seven);
  check "a grown domain is analysed" false (skipped (List.assoc "dom" linked))

(* {1 The worklist against the reference fixpoint}

   [reference_analyze] is the earlier fixpoint, kept here as the
   oracle: a node queue that re-walks every context of a node each
   time one more arrives, contexts in lists, one proof per
   (target, principal, rendered ceiling).  [Chain_certify.analyze]
   queues (node, context) pairs once each; on every graph the two must
   report the same sites, classifications, contexts and findings. *)

let ref_cap_key = function
  | None -> "-"
  | Some klass -> Format.asprintf "%a" Security_class.pp klass

let ref_same_context p cap p' cap' =
  Principal.equal_individual p p' && Option.equal Security_class.equal cap cap'

let ref_strict_ancestor a b =
  let la = String.length a and lb = String.length b in
  la < lb && String.equal a (String.sub b 0 la) && (String.equal a "/" || b.[la] = '/')

let reference_analyze ~db ~registry ~policy ~objects (g : Exsec_analysis.Callgraph.t) =
  let module Cg = Exsec_analysis.Callgraph in
  let module Cc = Chain_certify in
  let snapshot = Principal.Db.snapshot db in
  let out = Hashtbl.create 64 in
  List.iter
    (fun (e : Cg.edge) ->
      let sofar = Option.value ~default:[] (Hashtbl.find_opt out e.Cg.src) in
      Hashtbl.replace out e.Cg.src (e :: sofar))
    g.Cg.edges;
  let contexts = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let add_context node p cap =
    let existing = Option.value ~default:[] (Hashtbl.find_opt contexts node) in
    if not (List.exists (fun (p', cap') -> ref_same_context p cap p' cap') existing) then begin
      Hashtbl.replace contexts node ((p, cap) :: existing);
      Queue.push node worklist
    end
  in
  List.iter
    (fun (en : Cg.entry) -> add_context en.Cg.entry_node en.Cg.entry_principal en.Cg.entry_cap)
    g.Cg.entries;
  let memo = Hashtbl.create 64 in
  let verdict_for (site : Cg.site) p cap =
    let key = Path.to_string site.Cg.target, Principal.individual_name p, ref_cap_key cap in
    match Hashtbl.find_opt memo key with
    | Some verdict -> verdict
    | None ->
      let verdict =
        match site.Cg.chain with
        | [] -> Verdict.Depends
        | chain ->
          Exsec_analysis.Certify.prove_path ~snapshot ~registry ~policy ?static_class:cap
            ~principal:p ~chain ~mode:Access_mode.Execute ()
      in
      Hashtbl.add memo key verdict;
      verdict
  in
  let records = Hashtbl.create 16 in
  let record target p cap verdict =
    let r =
      match Hashtbl.find_opt records target with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add records target r;
        r
    in
    if not (List.exists (fun c -> ref_same_context p cap c.Cc.cx_principal c.Cc.cx_cap) !r) then
      r := { Cc.cx_principal = p; cx_cap = cap; cx_verdict = verdict } :: !r
  in
  while not (Queue.is_empty worklist) do
    let node = Queue.pop worklist in
    let ctxs = Option.value ~default:[] (Hashtbl.find_opt contexts node) in
    List.iter
      (fun (edge : Cg.edge) ->
        List.iter
          (fun (p, cap) ->
            match edge.Cg.site with
            | None -> add_context edge.Cg.dst p cap
            | Some site ->
              let verdict = verdict_for site p cap in
              record (Path.to_string site.Cg.target) p cap verdict;
              if not (Verdict.equal verdict Verdict.Always_deny) then
                add_context edge.Cg.dst p cap)
          ctxs)
      (Option.value ~default:[] (Hashtbl.find_opt out node))
  done;
  let sites =
    Hashtbl.fold
      (fun target r acc ->
        let sr_contexts =
          List.sort
            (fun a b ->
              let c =
                compare
                  (Principal.individual_name a.Cc.cx_principal)
                  (Principal.individual_name b.Cc.cx_principal)
              in
              if c <> 0 then c else compare (ref_cap_key a.Cc.cx_cap) (ref_cap_key b.Cc.cx_cap))
            !r
        in
        let all v = List.for_all (fun c -> Verdict.equal c.Cc.cx_verdict v) sr_contexts in
        let sr_classification =
          if all Verdict.Always_allow then Cc.Redundant
          else if all Verdict.Always_deny then Cc.Denied
          else Cc.Dependent
        in
        { Cc.sr_target = target; sr_classification; sr_contexts } :: acc)
      records []
    |> List.sort (fun a b -> compare a.Cc.sr_target b.Cc.sr_target)
  in
  let chain_finding sr =
    let n = List.length sr.Cc.sr_contexts in
    match sr.Cc.sr_classification with
    | Cc.Denied ->
      Finding.make Finding.Error Finding.Chain_denied ~path:sr.Cc.sr_target
        (Printf.sprintf "dead edge: provably denied for every reaching chain (%d context(s))" n)
    | Cc.Redundant ->
      Finding.make Finding.Info Finding.Chain_redundant ~path:sr.Cc.sr_target
        (Printf.sprintf
           "monitor check provably redundant along every reaching chain (%d context(s))" n)
    | Cc.Dependent ->
      Finding.make Finding.Info Finding.Chain_dependent ~path:sr.Cc.sr_target
        (Printf.sprintf "runtime-dependent: verdict varies across %d reaching context(s)" n)
  in
  let render_modes modes =
    String.concat "/" (List.map Access_mode.to_string (Access_mode.Set.to_list modes))
  in
  let targets = List.map (fun sr -> sr.Cc.sr_target) sites in
  let over_privilege =
    List.concat_map
      (fun (path, meta) ->
        let is_target = List.mem path targets in
        let is_interior = List.exists (fun t -> ref_strict_ancestor path t) targets in
        if not (is_target || is_interior) then []
        else
          let needed =
            let base = Access_mode.Set.singleton Access_mode.List in
            if is_target then Access_mode.Set.add Access_mode.Execute base else base
          in
          List.filter_map
            (fun p ->
              if Principal.equal_individual p meta.Meta.owner then None
              else
                match Clearance.detail_of registry p with
                | None -> None
                | Some detail when detail.Clearance.trusted -> None
                | Some _ ->
                  let excess =
                    Access_mode.Set.diff (Acl.modes_of ~db ~subject:p meta.Meta.acl) needed
                  in
                  if Access_mode.Set.is_empty excess then None
                  else
                    Some
                      (Finding.make Finding.Warning Finding.Over_privilege ~path
                         ~principal:(Principal.individual_name p)
                         (Printf.sprintf
                            "granted %s beyond any mode reachable through the call graph \
                             (chains need %s)"
                            (render_modes excess) (render_modes needed))))
            (Clearance.registered registry))
      objects
  in
  { Cc.sites; findings = Finding.normalize (List.map chain_finding sites @ over_privilege) }

(* A report as plain data: targets, classifications, contexts as
   (principal, rendered ceiling, verdict), findings as JSON. *)
let report_view (r : Chain_certify.report) =
  ( List.map
      (fun sr ->
        ( sr.Chain_certify.sr_target,
          Chain_certify.classification_to_string sr.Chain_certify.sr_classification,
          List.map
            (fun c ->
              ( Principal.individual_name c.Chain_certify.cx_principal,
                ref_cap_key c.Chain_certify.cx_cap,
                Verdict.to_string c.Chain_certify.cx_verdict ))
            sr.Chain_certify.sr_contexts ))
      r.Chain_certify.sites,
    Finding.to_json r.Chain_certify.findings )

(* Random graphs over chain.policy's objects: code nodes [c0..c4];
   every declared object is a site with its declared chain (gateway and
   ping prove allow, purge deny, run depends — and deny under a low
   ceiling), plus one unresolvable site.  Call edges run code -> site,
   transfers site -> code and code -> code, so cycles are common;
   entries pick a principal, a code node and one of five ceilings. *)
let gen_world =
  QCheck.Gen.(
    let node = int_bound 4 in
    let site = int_bound 6 in
    quad
      (list_size (int_range 0 14) (pair node site))
      (list_size (int_range 0 10) (pair site node))
      (list_size (int_range 0 6) (pair node node))
      (list_size (int_range 1 6) (triple (int_bound 2) node (int_bound 4))))

(* Classifications the property has compared, so a degenerate
   generator shows; read by the coverage case. *)
let worklist_seen = Hashtbl.create 4

let prop_worklist_reference =
  let built =
    match (Analyzer.analyze_text fixture_text).Analyzer.built with
    | Some built -> built
    | None -> Alcotest.fail "chain.policy does not build"
  in
  let module Cg = Exsec_analysis.Callgraph in
  let objects = built.Policy_text.metas in
  let declared path =
    List.filter_map
      (fun (p, meta) -> if ref_strict_ancestor p path || String.equal p path then Some (p, meta) else None)
      objects
    |> List.sort (fun (a, _) (b, _) -> compare (String.length a) (String.length b))
    |> List.map snd
  in
  let sites =
    Array.of_list
      (List.map (fun (path, _) -> Path.of_string path, declared path) objects
      @ [ Path.of_string "/svc/missing", [] ])
  in
  let klass level cats =
    Security_class.make
      (Level.of_name_exn built.Policy_text.hierarchy level)
      (Category.of_names built.Policy_text.universe cats)
  in
  let caps =
    [|
      None; Some (klass "public" []); Some (klass "internal" []); Some (klass "secret" [ "ops" ]);
      Some (klass "secret" [ "ops"; "sealed" ]);
    |]
  in
  let principals = Array.of_list (List.map Principal.individual [ "root"; "app"; "batch" ]) in
  let code i = Cg.code_node (Printf.sprintf "c%d" i) in
  QCheck.Test.make ~name:"worklist = reference fixpoint on random graphs" ~count:300
    (QCheck.make gen_world)
    (fun (calls, provides, jumps, entries) ->
      let site_edge (i, j) =
        let target, chain = sites.(j mod Array.length sites) in
        Cg.call_edge ~src:(code i) ~target ~chain
      in
      let edges =
        List.map site_edge calls
        @ List.map
            (fun (j, i) ->
              Cg.transfer_edge ~src:(Cg.site_node (fst sites.(j mod Array.length sites))) ~dst:(code i))
            provides
        @ List.map (fun (i, k) -> Cg.transfer_edge ~src:(code i) ~dst:(code k)) jumps
      in
      let entries =
        List.map
          (fun (p, i, c) ->
            { Cg.entry_principal = principals.(p); entry_node = code i; entry_cap = caps.(c) })
          entries
      in
      let graph = Cg.with_entries { Cg.empty with Cg.edges } entries in
      let db = built.Policy_text.db and registry = built.Policy_text.registry in
      let report = Chain_certify.analyze ~db ~registry ~policy:Policy.default ~objects graph in
      List.iter
        (fun sr -> Hashtbl.replace worklist_seen sr.Chain_certify.sr_classification ())
        report.Chain_certify.sites;
      report_view report
      = report_view (reference_analyze ~db ~registry ~policy:Policy.default ~objects graph))

(* The property runs once, from whichever of its case and its
   coverage case comes first. *)
let worklist_case, worklist_run = Once.property prop_worklist_reference ~counts:ignore

let test_worklist_coverage () =
  Once.force worklist_run;
  check "random graphs reached redundant, denied and dependent sites" true
    (List.for_all (Hashtbl.mem worklist_seen)
       [ Chain_certify.Redundant; Chain_certify.Denied; Chain_certify.Dependent ])

let suite =
  [
    Alcotest.test_case "fixture: one chain per verdict class" `Quick
      test_fixture_classification;
    Alcotest.test_case "normalize golden (dedupe + order + JSON)" `Quick
      test_normalize_golden;
    Alcotest.test_case "report order stable across runs" `Quick test_report_order_stable;
    Alcotest.test_case "linker pre-mints proved chain targets" `Quick
      test_linker_preminted_chain;
    Alcotest.test_case "a link skips only an analysis that adds nothing" `Quick
      test_link_skips_only_empty_analyses;
    Oracle.routes_case "chain analysis = full monitor under churn"
      ~routes:[ Oracle.Chain; Oracle.Proved ]
      ~kinds:[ "recertify"; "set-acl"; "policy"; "republish" ];
    Oracle.volume_case "differential probe volume" ~routes:[ Oracle.Chain; Oracle.Proved ];
    worklist_case;
    Alcotest.test_case "worklist property coverage" `Quick test_worklist_coverage;
  ]
