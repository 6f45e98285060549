(* The static policy analyzer (Exsec_analysis): differential soundness
   of the certifier against the live reference monitor, certificate
   invalidation through the kernel's fast path, the ACL lints on a
   defective fixture, and the flow/reachability passes. *)

open Exsec_core
open Exsec_extsys
module Verdict = Exsec_analysis.Verdict
module Certify = Exsec_analysis.Certify
module Certificate = Exsec_analysis.Certificate
module Acl_lint = Exsec_analysis.Acl_lint
module Finding = Exsec_analysis.Finding
module Analyzer = Exsec_analysis.Analyzer

let check = Alcotest.(check bool)

(* {1 Differential soundness}

   The certifier quantifies over every session the registry can mint;
   the monitor decides one concrete session.  Soundness is one-sided:
   a proved Always_allow must never be denied, a proved Always_deny
   never granted — Depends carries no obligation. *)

let level_names = [ "l0"; "l1"; "l2" ]
let cat_names = [ "c0"; "c1"; "c2" ]

let hierarchy = Level.hierarchy level_names
let universe = Category.universe cat_names

let rand_class st =
  let level = Level.of_name_exn hierarchy (List.nth level_names (Random.State.int st 3)) in
  let cats = List.filter (fun _ -> Random.State.bool st) cat_names in
  Security_class.make level (Category.of_names universe cats)

(* One analysis world drawn from [st]: five principals in two groups,
   each registered with a random clearance, integrity label and
   trusted bit, and eight objects with random ACLs, classes and
   integrity labels. *)
let random_world st =
  let db = Principal.Db.create () in
  let people = List.init 5 (fun i -> Principal.individual (Printf.sprintf "p%d" i)) in
  List.iter (Principal.Db.add_individual db) people;
  let groups = [ Principal.group "g0"; Principal.group "g1" ] in
  List.iter
    (fun grp ->
      List.iter
        (fun p -> if Random.State.bool st then Principal.Db.add_member db grp (Principal.Ind p))
        people)
    groups;
  let registry = Clearance.create () in
  let details =
    List.map
      (fun p ->
        let clearance = rand_class st in
        let integrity = if Random.State.bool st then Some (rand_class st) else None in
        let trusted = Random.State.int st 4 = 0 in
        Clearance.register registry ?integrity ~trusted p clearance;
        p, (clearance, integrity, trusted))
      people
  in
  let metas =
    List.init 8 (fun _ ->
        let owner = List.nth people (Random.State.int st 5) in
        let entries =
          List.init (Random.State.int st 6) (fun _ ->
              let who =
                match Random.State.int st 4 with
                | 0 -> Acl.Individual (List.nth people (Random.State.int st 5))
                | 1 | 2 -> Acl.Group (List.nth groups (Random.State.int st 2))
                | _ -> Acl.Everyone
              in
              let modes = List.filter (fun _ -> Random.State.bool st) Access_mode.all in
              (if Random.State.bool st then Acl.allow else Acl.deny) who modes)
        in
        let integrity = if Random.State.bool st then Some (rand_class st) else None in
        Meta.make ~owner ~acl:(Acl.of_entries entries) ?integrity (rand_class st))
  in
  db, registry, details, metas

let policies =
  [|
    Policy.default;
    Policy.dac_only;
    Policy.mac_only;
    Policy.no_integrity;
    { Policy.default with Policy.overwrite = Mac.Liberal };
  |]

let test_differential () =
  let probes = ref 0 in
  for seed = 0 to 9 do
    let st = Random.State.make [| seed |] in
    let policy = policies.(seed mod Array.length policies) in
    let db, registry, details, metas = random_world st in
    let monitor = Reference_monitor.create ~policy db in
    let snapshot = Principal.Db.snapshot db in
    let consistent ~what verdict decision =
      incr probes;
      match verdict, decision with
      | Verdict.Always_allow, Decision.Denied _ ->
        Alcotest.failf "seed %d: %s proved always-allow but the monitor denied" seed what
      | Verdict.Always_deny, Decision.Granted ->
        Alcotest.failf "seed %d: %s proved always-deny but the monitor granted" seed what
      | (Verdict.Always_allow | Verdict.Always_deny | Verdict.Depends), _ -> ()
    in
    List.iter
      (fun (principal, (clearance, integrity, trusted)) ->
        List.iter
          (fun meta ->
            List.iter
              (fun mode ->
                let plain =
                  Certify.prove ~snapshot ~registry ~policy ~principal ~meta ~mode ()
                in
                let ceiling = rand_class st in
                let capped =
                  Certify.prove ~snapshot ~registry ~policy ~static_class:ceiling ~principal
                    ~meta ~mode ()
                in
                for _ = 1 to 2 do
                  (* Any session the registry would mint: a class under
                     the clearance, same integrity and trust bits. *)
                  let session = Security_class.meet (rand_class st) clearance in
                  let subject = Subject.make ~trusted ?integrity principal session in
                  let subject_capped =
                    Subject.make ~ceiling ~trusted ?integrity principal session
                  in
                  consistent ~what:"session" plain
                    (Reference_monitor.decide monitor ~subject ~meta ~mode);
                  consistent ~what:"capped session" capped
                    (Reference_monitor.decide monitor ~subject:subject_capped ~meta ~mode);
                  (* A ceiling only narrows the quantified range, so the
                     uncapped proof also covers the capped session. *)
                  consistent ~what:"capped session under uncapped proof" plain
                    (Reference_monitor.decide monitor ~subject:subject_capped ~meta ~mode)
                done)
              Access_mode.all)
          metas)
      details
  done;
  check "at least 10k probes" true (!probes >= 10_000)

(* {1 A node proof is exact}

   Differential soundness is one-sided, so a prover that always
   answers Depends passes it.  On the suite's lattice (3 levels x 3
   categories, 24 classes) a principal's session range [bottom, e_max]
   can be decided class by class: for every world, policy, principal,
   ceiling (none or random), object and mode, [prove] must answer
   Always_allow iff the monitor grants every class in the range,
   Always_deny iff it denies every one, and Depends otherwise. *)

let all_classes =
  let subsets =
    List.fold_right (fun c subsets -> subsets @ List.map (List.cons c) subsets) cat_names [ [] ]
  in
  List.concat_map
    (fun level ->
      List.map
        (fun cats ->
          Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats))
        subsets)
    level_names

let test_node_proof_exact () =
  check "24 classes" true (List.length all_classes = 24);
  let probes = ref 0 in
  for seed = 0 to 9 do
    let st = Random.State.make [| seed |] in
    let db, registry, details, metas = random_world st in
    let snapshot = Principal.Db.snapshot db in
    Array.iter
      (fun policy ->
        let monitor = Reference_monitor.create ~policy db in
        List.iter
          (fun (principal, (clearance, integrity, trusted)) ->
            List.iter
              (fun static_class ->
                let e_max =
                  Option.fold ~none:clearance ~some:(Security_class.meet clearance) static_class
                in
                let sessions =
                  List.filter_map
                    (fun klass ->
                      if Security_class.dominates e_max klass then
                        Some (Subject.make ~trusted ?integrity principal klass)
                      else None)
                    all_classes
                in
                List.iter
                  (fun meta ->
                    List.iter
                      (fun mode ->
                        incr probes;
                        let granted =
                          List.length
                            (List.filter
                               (fun subject ->
                                 match Reference_monitor.decide monitor ~subject ~meta ~mode with
                                 | Decision.Granted -> true
                                 | Decision.Denied _ -> false)
                               sessions)
                        in
                        let expected =
                          if granted = List.length sessions then Verdict.Always_allow
                          else if granted = 0 then Verdict.Always_deny
                          else Verdict.Depends
                        in
                        let verdict =
                          Certify.prove ~snapshot ~registry ~policy ?static_class ~principal ~meta
                            ~mode ()
                        in
                        if not (Verdict.equal verdict expected) then
                          Alcotest.failf
                            "seed %d, %s %s on %a: proved %s, the monitor grants %d of %d classes"
                            seed (Principal.individual_name principal)
                            (Access_mode.to_string mode) Security_class.pp meta.Meta.klass
                            (Verdict.to_string verdict) granted (List.length sessions))
                      Access_mode.all)
                  metas)
              [ None; Some (rand_class st) ])
          details)
      policies
  done;
  Alcotest.(check int) "every probe made" 32_000 !probes

(* {1 A path proof is the fold of its node proofs}

   [prove_path] reads the principal once and folds one node step over
   the chain; [prove] runs the same step per node.  On one analysis
   world, with a principal the database knows but the registry does
   not and one neither knows, random root-first chains of up to four
   objects under every mode, static class and policy (each layer off,
   both overwrite rules) must give the same verdict both ways.  A
   certificate issued over the same chain must prove, per import, the
   conjunction of [prove_path] over its covers. *)

let prop_prove_path_folds =
  let st = Random.State.make [| 37 |] in
  let db, registry, details, metas = random_world st in
  (* At least one trusted principal, so the trusted exemptions show. *)
  (match details with
  | (p, (clearance, integrity, _)) :: _ ->
    Clearance.register registry ?integrity ~trusted:true p clearance
  | [] -> ());
  let drifter = Principal.individual "drifter" in
  Principal.Db.add_individual db drifter;
  let principals =
    Array.of_list (List.map fst details @ [ drifter; Principal.individual "ghost" ])
  in
  let metas = Array.of_list metas in
  let ceilings = Array.init 4 (fun _ -> Some (rand_class st)) in
  let policies =
    Array.of_list
      (List.concat_map
         (fun overwrite ->
           List.map
             (fun policy -> { policy with Policy.overwrite })
             [
               Policy.default;
               { Policy.default with Policy.dac = false };
               { Policy.default with Policy.mac = false };
               { Policy.default with Policy.integrity = false };
             ])
         [ Mac.Strict; Mac.Liberal ])
  in
  let monitors = Array.map (fun policy -> Reference_monitor.create ~policy db) policies in
  let snapshot = Principal.Db.snapshot db in
  let modes = Array.of_list Access_mode.all in
  let gen =
    QCheck.Gen.(
      quad
        (pair (int_bound (Array.length principals - 1)) (int_bound (Array.length modes - 1)))
        (list_size (int_bound 4) (int_bound (Array.length metas - 1)))
        (int_bound (Array.length ceilings))
        (int_bound (Array.length policies - 1)))
  in
  let all = List.fold_left Verdict.both Verdict.Always_allow in
  QCheck.Test.make ~name:"prove_path = the fold of prove; a proof = prove_path over its covers"
    ~count:10_000 (QCheck.make gen)
    (fun ((p, m), chain, c, k) ->
      let principal = principals.(p) and mode = modes.(m) and policy = policies.(k) in
      let static_class = if c = 0 then None else ceilings.(c - 1) in
      let chain = List.map (fun i -> metas.(i)) chain in
      let prove meta mode =
        Certify.prove ~snapshot ~registry ~policy ?static_class ~principal ~meta ~mode ()
      in
      let rec per_node = function
        | [] -> []
        | [ target ] -> [ prove target mode ]
        | interior :: rest -> prove interior Access_mode.List :: per_node rest
      in
      let prove_path principal mode =
        Certify.prove_path ~snapshot ~registry ~policy ?static_class ~principal ~chain ~mode ()
      in
      Verdict.equal (prove_path principal mode) (all (per_node chain))
      &&
      match chain with
      | [] -> true
      | root_meta :: below ->
        (* The chain as a tree: the root, then one directory per node. *)
        let namespace = Namespace.create ~root_meta () in
        let import =
          List.fold_left
            (fun (parent, i) meta ->
              match Namespace.add_dir_at namespace parent (Printf.sprintf "n%d" i) ~meta with
              | Ok node -> node, i + 1
              | Error e -> Alcotest.failf "tree: %a" Namespace.pp_error e)
            (Namespace.root namespace, 0) below
          |> fun (node, _) -> Namespace.path node
        in
        let certificate =
          Certificate.issue ~monitor:monitors.(k) ~registry ~namespace ?static_class
            ~extension:"prop" ~imports:[ import ] ()
        in
        List.for_all
          (fun (proof : Certificate.import_proof) ->
            List.for_all2 ( == ) proof.Certificate.chain chain
            && Verdict.equal proof.Certificate.verdict
                 (all
                    (Array.to_list
                       (Array.map
                          (fun (cover : Certificate.cover) ->
                            prove_path cover.Certificate.principal Access_mode.Execute)
                          certificate.Certificate.covers))))
          certificate.Certificate.proofs)

(* {1 Certificate lifecycle through the kernel} *)

let boot_certified () =
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
  let admin_sub = Kernel.admin_subject kernel in
  let ping = Path.of_string "/svc/ping" in
  (match
     Kernel.install_proc kernel ~subject:admin_sub ping
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "ping" 0 (Service.const (Value.str "pong")))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup ping: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  kernel, admin, alice, alice_sub, ping

let link_ok kernel ~subject ext =
  match Linker.link kernel ~subject ext with
  | Ok linked -> linked
  | Error e -> Alcotest.failf "link: %a" Linker.pp_link_error e

let call_ok linked ~subject path =
  match Linker.Linked.call linked ~subject path [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "call: %s" (Service.error_to_string e)

let test_certificate_fast_path () =
  let kernel, _, alice, alice_sub, ping = boot_certified () in
  let monitor = Kernel.monitor kernel in
  let total () = Audit.total (Reference_monitor.audit monitor) in
  let ext = Extension.make ~name:"caller" ~author:alice ~imports:[ ping ] () in
  let linked = link_ok kernel ~subject:alice_sub ext in
  let certificate =
    match Linker.Linked.certificate linked with
    | Some certificate -> certificate
    | None -> Alcotest.fail "no certificate issued"
  in
  check "fully certified" true (Certificate.fully_certified certificate);
  check "kernel holds it" true (Kernel.certificate_of kernel "caller" <> None);
  (* Certified calls skip the monitor entirely: the audit trail stays
     flat even though the policy demands per-call rechecks. *)
  call_ok linked ~subject:alice_sub ping;
  let t0 = total () in
  call_ok linked ~subject:alice_sub ping;
  call_ok linked ~subject:alice_sub ping;
  Alcotest.(check int) "no audit while certified" t0 (total ());
  (* Mutating the import's metadata bumps its generation: the
     certificate stops validating and full checks resume. *)
  let admin_sub = Kernel.admin_subject kernel in
  (match
     Resolver.set_acl (Kernel.resolver kernel) ~subject:admin_sub ping
       (Acl.of_entries
          [
            Acl.allow_all (Acl.Individual (Principal.individual "admin"));
            Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
          ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set_acl: %a" Resolver.pp_denial e);
  let t1 = total () in
  call_ok linked ~subject:alice_sub ping;
  check "checks resumed after acl generation bump" true (total () > t1);
  (* A fresh link re-proves against the new metadata and goes quiet
     again... *)
  let linked2 =
    link_ok kernel ~subject:alice_sub
      (Extension.make ~name:"caller2" ~author:alice ~imports:[ ping ] ())
  in
  call_ok linked2 ~subject:alice_sub ping;
  let t2 = total () in
  call_ok linked2 ~subject:alice_sub ping;
  Alcotest.(check int) "re-proved certificate admits" t2 (total ());
  (* ...until re-installing the policy bumps the epoch and revokes it. *)
  Reference_monitor.set_policy monitor Policy.default;
  let t3 = total () in
  call_ok linked2 ~subject:alice_sub ping;
  check "checks resumed after epoch bump" true (total () > t3)

let test_certificate_covers_subjects_only () =
  let kernel, _, alice, alice_sub, ping = boot_certified () in
  let ext = Extension.make ~name:"caller" ~author:alice ~imports:[ ping ] () in
  let linked = link_ok kernel ~subject:alice_sub ext in
  let certificate = Option.get (Linker.Linked.certificate linked) in
  let monitor = Kernel.monitor kernel in
  let namespace = Kernel.namespace kernel in
  check "covers alice" true
    (Certificate.admits certificate ~monitor ~namespace ~subject:alice_sub ping);
  (* A principal the registry never saw is outside the proved domain. *)
  let stranger = Subject.make (Principal.individual "eve") (Subject.clearance alice_sub) in
  check "stranger not covered" false
    (Certificate.admits certificate ~monitor ~namespace ~subject:stranger ping);
  (* An integrity label the registration did not carry breaks cover. *)
  let relabeled =
    Subject.make
      ~integrity:(Subject.clearance alice_sub)
      alice (Subject.clearance alice_sub)
  in
  check "different integrity label not covered" false
    (Certificate.admits certificate ~monitor ~namespace ~subject:relabeled ping)

(* {1 The lints on a deliberately defective policy} *)

let defective_policy =
  "levels high > low\n\
   categories alpha beta\n\
   individual alice\n\
   individual bob\n\
   group team = alice bob\n\
   clearance alice = high { alpha }\n\
   clearance bob = low\n\
   object /vault/secret {\n\
  \  owner alice\n\
  \  class high { alpha beta }\n\
  \  allow user:alice read\n\
  \  allow user:mallory write\n\
  \  deny group:team list\n\
  \  allow group:team list\n\
  \  deny user:bob read\n\
  \  allow group:team read\n\
  \  allow user:alice read\n\
   }\n"

let test_defective_fixture () =
  let report = Analyzer.analyze_text defective_policy in
  let has kind =
    List.exists (fun f -> f.Finding.kind = kind) report.Analyzer.findings
  in
  check "unknown principal" true (has Finding.Unknown_principal);
  check "contradictory entries" true (has Finding.Contradictory_entries);
  check "shadowed entry" true (has Finding.Shadowed_entry);
  check "redundant entry" true (has Finding.Redundant_entry);
  check "dead grant" true (has Finding.Dead_grant);
  Alcotest.(check int) "two errors" 2
    (Finding.count Finding.Error report.Analyzer.findings);
  check "still builds" true (report.Analyzer.built <> None)

(* {1 ACL precedence corners, each justified by an analyzer verdict} *)

let lint_world () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  let team = Principal.group "team" in
  Principal.Db.add_member db team (Principal.Ind alice);
  Principal.Db.add_member db team (Principal.Ind bob);
  let hierarchy = Level.hierarchy [ "a" ] in
  let universe = Category.universe [] in
  db, alice, bob, team, Security_class.bottom hierarchy universe

let lint db meta =
  Acl_lint.lint_object ~db ~policy:Policy.default ~path:"/x" meta

let test_individual_beats_group_justified () =
  let db, alice, bob, team, bottom = lint_world () in
  (* Both members are decided at the individual tier, so the group
     grant decides nothing — the precedence rule is exactly what the
     shadowed-entry verdict certifies. *)
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Individual alice) [ Access_mode.Read; Access_mode.Write ];
        Acl.deny (Acl.Individual bob) [ Access_mode.Read ];
        Acl.allow (Acl.Group team) [ Access_mode.Read ];
      ]
  in
  check "bob: individual deny beats group allow" false
    (Acl.permits ~db ~subject:bob ~mode:Access_mode.Read acl);
  check "alice: individual allow stands" true
    (Acl.permits ~db ~subject:alice ~mode:Access_mode.Read acl);
  let meta = Meta.make ~owner:alice ~acl bottom in
  let shadowed =
    List.filter (fun f -> f.Finding.kind = Finding.Shadowed_entry) (lint db meta)
  in
  Alcotest.(check int) "exactly the group entry is shadowed" 1 (List.length shadowed)

let test_same_tier_deny_justified () =
  let db, alice, _, _, bottom = lint_world () in
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Individual alice) [ Access_mode.Write ];
        Acl.deny (Acl.Individual alice) [ Access_mode.Write ];
      ]
  in
  check "deny wins within a tier" false
    (Acl.permits ~db ~subject:alice ~mode:Access_mode.Write acl);
  let meta = Meta.make ~owner:alice ~acl bottom in
  check "the pair is flagged contradictory" true
    (List.exists (fun f -> f.Finding.kind = Finding.Contradictory_entries) (lint db meta))

let test_everyone_fallthrough_justified () =
  let db, alice, _, team, bottom = lint_world () in
  (* Group deny over an everyone allow: members fall to the deny,
     strangers fall through to the everyone tier.  Both entries decide
     someone, so neither is shadowed. *)
  let acl =
    Acl.of_entries
      [
        Acl.deny (Acl.Group team) [ Access_mode.Read ];
        Acl.allow Acl.Everyone [ Access_mode.Read ];
      ]
  in
  check "member denied at group tier" false
    (Acl.permits ~db ~subject:alice ~mode:Access_mode.Read acl);
  check "stranger granted at everyone tier" true
    (Acl.permits ~db ~subject:(Principal.individual "stranger") ~mode:Access_mode.Read acl);
  let meta = Meta.make ~owner:alice ~acl bottom in
  check "no entry is shadowed" false
    (List.exists (fun f -> f.Finding.kind = Finding.Shadowed_entry) (lint db meta));
  (* A bare deny, by contrast, is inert under the closed world — the
     analyzer says so. *)
  let bare = Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.deny Acl.Everyone [ Access_mode.Write ] ]) bottom in
  check "bare deny is shadowed" true
    (List.exists (fun f -> f.Finding.kind = Finding.Shadowed_entry) (lint db bare))

(* {1 Flow and reachability passes} *)

let test_flow_channel () =
  let text =
    "levels a > b\n\
     categories x\n\
     individual p\n\
     clearance p = a { x }\n\
     object /fs/secret {\n\
    \  owner p\n\
    \  class a { x }\n\
    \  allow user:p read write\n\
     }\n\
     object /fs/public {\n\
    \  owner p\n\
    \  class b\n\
    \  allow user:p read write\n\
     }\n"
  in
  let report = Analyzer.analyze_text text in
  let channels =
    List.filter (fun f -> f.Finding.kind = Finding.Flow_channel) report.Analyzer.findings
  in
  (* p may read the secret and write the public file: one downward
     relay channel, and only one (the upward direction is compliant). *)
  Alcotest.(check int) "one channel" 1 (List.length channels);
  check "from the secret" true
    (List.for_all (fun f -> f.Finding.path = Some "/fs/secret") channels)

let test_flow_relay_cycle () =
  (* X and Y relay into each other (a cycle in the reach relation) and
     both relay into Z.  The closure must terminate on the cycle, and
     each ordered pair whose flow is downward must be reported exactly
     once: X->Y and Y->X (incomparable categories), X->Z and Y->Z
     (level drop).  Z's class is dominated by both, so Z->X and Z->Y
     are compliant, and no pair repeats despite the cycle feeding the
     closure both directions. *)
  let text =
    "levels a > b\n\
     categories x y\n\
     individual p\n\
     clearance p = a { x y }\n\
     object /fs/xside {\n\
    \  owner p\n\
    \  class a { x }\n\
    \  allow user:p read write\n\
     }\n\
     object /fs/yside {\n\
    \  owner p\n\
    \  class a { y }\n\
    \  allow user:p read write\n\
     }\n\
     object /fs/sink {\n\
    \  owner p\n\
    \  class b\n\
    \  allow user:p read write\n\
     }\n"
  in
  let report = Analyzer.analyze_text text in
  let channels =
    List.filter (fun f -> f.Finding.kind = Finding.Flow_channel) report.Analyzer.findings
  in
  let from path =
    List.length (List.filter (fun f -> f.Finding.path = Some path) channels)
  in
  Alcotest.(check int) "four channels, each pair once" 4 (List.length channels);
  Alcotest.(check int) "two from xside" 2 (from "/fs/xside");
  Alcotest.(check int) "two from yside" 2 (from "/fs/yside");
  Alcotest.(check int) "none from the sink" 0 (from "/fs/sink");
  (* The report is normalized: running the pass again yields the same
     findings in the same order — the cycle introduces no duplicates. *)
  let report2 = Analyzer.analyze_text text in
  check "stable across runs" true
    (report.Analyzer.findings = report2.Analyzer.findings)

let test_unreachable_object () =
  let text =
    "levels a > b\n\
     individual eve\n\
     clearance eve = b\n\
     object /fs {\n\
    \  owner eve\n\
    \  class b\n\
    \  allow user:eve read\n\
     }\n\
     object /fs/data {\n\
    \  owner eve\n\
    \  class b\n\
    \  allow user:eve read write\n\
     }\n"
  in
  let report = Analyzer.analyze_text text in
  check "data is unreachable (no List on /fs)" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Unreachable_object && f.Finding.path = Some "/fs/data")
       report.Analyzer.findings)

(* {1 Small pieces} *)

let test_verdict_algebra () =
  check "allow+allow" true
    (Verdict.equal (Verdict.both Verdict.Always_allow Verdict.Always_allow) Verdict.Always_allow);
  check "deny dominates" true
    (Verdict.equal (Verdict.both Verdict.Depends Verdict.Always_deny) Verdict.Always_deny);
  check "depends taints" true
    (Verdict.equal (Verdict.both Verdict.Always_allow Verdict.Depends) Verdict.Depends)

let test_broken_text_reports () =
  let report = Analyzer.analyze_text "individual eve\nfrobnicate\n" in
  check "parse errors are findings" true
    (List.exists (fun f -> f.Finding.kind = Finding.Parse_error) report.Analyzer.findings);
  check "unbuildable" true (report.Analyzer.built = None)

let suite =
  [
    Alcotest.test_case "differential soundness (10k+ probes)" `Quick test_differential;
    Alcotest.test_case "a node proof is exact" `Quick test_node_proof_exact;
    QCheck_alcotest.to_alcotest prop_prove_path_folds;
    Alcotest.test_case "certificate fast path + invalidation" `Quick
      test_certificate_fast_path;
    Alcotest.test_case "certificate subject cover" `Quick
      test_certificate_covers_subjects_only;
    Alcotest.test_case "defective fixture: all five lints" `Quick test_defective_fixture;
    Alcotest.test_case "individual-beats-group, justified" `Quick
      test_individual_beats_group_justified;
    Alcotest.test_case "same-tier deny, justified" `Quick test_same_tier_deny_justified;
    Alcotest.test_case "everyone fallthrough, justified" `Quick
      test_everyone_fallthrough_justified;
    Alcotest.test_case "flow channel" `Quick test_flow_channel;
    Alcotest.test_case "flow relay cycle terminates, pairs once" `Quick
      test_flow_relay_cycle;
    Alcotest.test_case "unreachable object" `Quick test_unreachable_object;
    Alcotest.test_case "verdict algebra" `Quick test_verdict_algebra;
    Alcotest.test_case "broken text reports" `Quick test_broken_text_reports;
  ]
