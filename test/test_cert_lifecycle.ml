(* The certificate lifecycle (Exsec_analysis.Certificate +
   Kernel lifecycle surface): per-subject invalidation by the row
   rule, profiles, expiry epochs, delegation chains and CRL-style
   revocation.  Every handle is
   a monitor decision: a certificate mints none and closes none, so
   revoking or expiring one strips the proofs [Linked.call] serves
   from, and every handle keeps its own validity rule.  Also pinned:
   Verdict.all [] folds to Always_allow, so a certificate issued under
   an empty clearance registry must not mark every import vacuously
   Always_allow.

   The differential oracle drives twin kernels, built identically over
   one shared principal database and clearance registry.  On the
   lifecycle side, where profiled, expiring and delegated
   certificates live, every import is probed through [Linked.call] and
   every chain target through [Linked.call_chain]; the full side answers
   each probe with the checked [Kernel.call] under the same subject.
   Probes must agree structurally under lockstep churn — ACL edits,
   membership changes in covered and uncovered groups, policy bumps,
   relabels, expiry sweeps, CRL revocations, re-certification — and
   every denial on the lifecycle side must land a denied audit
   record. *)

open Exsec_core
open Exsec_extsys
module Metrics = Exsec_obs.Metrics
module Verdict = Exsec_analysis.Verdict
module Certificate = Exsec_analysis.Certificate

let check = Alcotest.(check bool)

let counter name =
  let snap = Metrics.snapshot () in
  match List.assoc_opt name snap.Metrics.counters with Some v -> v | None -> 0

(* {1 The lifecycle world}

   store (/svc/get) is gated through a group entry — allow staff
   {List, Execute} — so a proof against it holds for alice (through
   the nested group eng) and bob (directly) only while their own rows
   keep them in staff.  visitors holds no covered principal: churn on
   it moves no covered row and must revoke nothing. *)

let store = Path.of_string "/svc/get"
let fetch = Path.of_string "/ext/relay/fetch"

type world = {
  kernel : Kernel.t;
  db : Principal.Db.t;
  registry : Clearance.t;
  admin : Principal.individual;
  alice : Principal.individual;
  bob : Principal.individual;
  staff : Principal.group;
  eng : Principal.group;
  visitors : Principal.group;
  alice_sub : Subject.t;
  relay : Linker.Linked.t;
  front : Linker.Linked.t;
}

let build_world ?front_profile () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  let staff = Principal.group "staff" in
  let eng = Principal.group "eng" in
  let visitors = Principal.group "visitors" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_member db eng (Principal.Ind alice);
  Principal.Db.add_member db staff (Principal.Grp eng);
  Principal.Db.add_member db staff (Principal.Ind bob);
  Principal.Db.add_group db visitors;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  Clearance.register registry bob bottom;
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ~registry ~db ~admin ~hierarchy ~universe ()
  in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow (Acl.Group staff) [ Access_mode.List; Access_mode.Execute ];
           ])
      bottom
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store ~meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup get: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let link ?profile ext =
    match Linker.link ?profile kernel ~subject:alice_sub ext with
    | Ok linked -> linked
    | Error e -> Alcotest.failf "link: %a" Linker.pp_link_error e
  in
  let relay =
    link
      (Extension.make ~name:"relay" ~author:alice ~imports:[ store ]
         ~provides:
           [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
         ())
  in
  let front =
    link ?profile:front_profile
      (Extension.make ~name:"front" ~author:alice ~imports:[ fetch ] ())
  in
  {
    kernel; db; registry; admin; alice; bob; staff; eng; visitors; alice_sub; relay;
    front;
  }

let audit_total w = Audit.total (Reference_monitor.audit (Kernel.monitor w.kernel))

(* The audit records one call writes. *)
let records w f =
  let t0 = audit_total w in
  ignore (f ());
  audit_total w - t0

let open_ok w ~caller path =
  match Kernel.open_handle w.kernel ~subject:w.alice_sub ~caller path with
  | Ok handle -> handle
  | Error e -> Alcotest.failf "open_handle %s: %s" caller (Service.error_to_string e)

(* {1 Every handle is a monitor decision} *)

let test_open_is_audited () =
  let w = build_world () in
  (* front's certificate proves /svc/get transitively, yet opening a
     handle on it is decided (and audited) exactly like a call. *)
  check "front's certificate admits the path" true
    (Kernel.certificate_admits w.kernel ~caller:"front" ~subject:w.alice_sub store);
  let opened = records w (fun () -> open_ok w ~caller:"front" store) in
  check "the open wrote audit records" true (opened > 0);
  Alcotest.(check int) "as many as a checked call" opened
    (records w (fun () -> Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store []))

let test_revoke_strips_proofs () =
  Metrics.set_enabled true;
  let w = build_world () in
  let handle = open_ok w ~caller:"front" store in
  let other = open_ok w ~caller:"bystander" store in
  (* front's import fetch is proved: only the nested hop to /svc/get
     (a checked ctx call) is audited. *)
  let proved = records w (fun () -> Linker.Linked.call w.front ~subject:w.alice_sub fetch []) in
  Kernel.revoke_certificate w.kernel "front";
  check "certificate gone" true (Kernel.certificate_of w.kernel "front" = None);
  (* Revocation strips the proof: the outer hop is now checked. *)
  check "revoked Linked.call is audited" true
    (records w (fun () -> Linker.Linked.call w.front ~subject:w.alice_sub fetch []) > proved);
  (* No handle dies with the certificate: each keeps serving from its
     own monitor decision, as a handle hit. *)
  let hits0 = counter "handle.hits" in
  check "front's handle still serves" true
    (Kernel.call_handle w.kernel handle [] = Ok (Value.int 7));
  check "bystander's handle still serves" true
    (Kernel.call_handle w.kernel other [] = Ok (Value.int 7));
  check "chain handle still serves" true
    (Linker.Linked.call_chain w.front store [] = Ok (Value.int 7));
  check "all three were hits" true (counter "handle.hits" = hits0 + 3)

(* {1 Regression: empty registry certifies nothing} *)

let test_empty_registry_proves_nothing () =
  let w = build_world () in
  let empty = Clearance.create () in
  let certificate =
    Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:empty
      ~namespace:(Kernel.namespace w.kernel) ~extension:"hollow" ~imports:[ store ] ()
  in
  check "zero covers" true (certificate.Certificate.covers = [||]);
  (* The regression: Verdict.all [] is Always_allow, so these proofs
     used to come out vacuously certified. *)
  check "proofs are Depends, not vacuous Always_allow" true
    (List.for_all
       (fun (proof : Certificate.import_proof) ->
         Verdict.equal proof.Certificate.verdict Verdict.Depends)
       certificate.Certificate.proofs);
  check "not fully certified" false (Certificate.fully_certified certificate);
  check "admits nothing" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel)
       ~namespace:(Kernel.namespace w.kernel) ~subject:w.alice_sub store)

(* {1 The row rule} *)

let test_row_rule_survival () =
  Metrics.set_enabled true;
  let w = build_world () in
  let audit_total () = audit_total w in
  check "certified before churn" true
    (Kernel.certificate_admits w.kernel ~caller:"relay" ~subject:w.alice_sub store);
  let generation0 = Principal.Db.generation w.db in
  (* >= 10^3 batched edits that move no covered principal's row:
     guests join visitors, a group no consulted ACL names. *)
  for batch = 0 to 3 do
    Kernel.batch_principals w.kernel (fun () ->
        for i = 0 to 249 do
          Principal.Db.add_member w.db w.visitors
            (Principal.Ind (Principal.individual (Printf.sprintf "guest-%d-%d" batch i)))
        done)
  done;
  check "the generation moved (old scheme would revoke)" true
    (Principal.Db.generation w.db > generation0);
  (* relay's certified calls cause zero re-proofs: no audit record,
     every call served from the import handle its proof is recorded
     on. *)
  let audit0 = audit_total () in
  let hits0 = counter "handle.hits" in
  for _ = 1 to 10 do
    check "certified call survives unrelated churn" true
      (Linker.Linked.call w.relay ~subject:w.alice_sub store [] = Ok (Value.int 7))
  done;
  check "zero re-proofs (no audited decisions)" true (audit_total () = audit0);
  check "all ten calls served from the proved import handle" true
    (counter "handle.hits" = hits0 + 10);
  (* An edit of alice's own membership — she leaves the nested group
     eng, and so the ACL-named staff — moves her row and fails
     closed. *)
  Principal.Db.remove_member w.db w.eng (Principal.Ind w.alice);
  check "nested-group edit revokes" false
    (Kernel.certificate_admits w.kernel ~caller:"relay" ~subject:w.alice_sub store);
  (* alice left staff's closure, so the checked path now denies
     Execute on the staff-gated store: the answer comes from the
     monitor, audited. *)
  let denied0 = Audit.denied_total (Reference_monitor.audit (Kernel.monitor w.kernel)) in
  (match Linker.Linked.call w.relay ~subject:w.alice_sub store [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "stale certificate granted after covered edit"
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e));
  check "the denial is audited (checked path)" true
    (Audit.denied_total (Reference_monitor.audit (Kernel.monitor w.kernel)) > denied0)

let test_born_stale_under_batch () =
  let w = build_world () in
  (* A certificate issued while a batch is in flight is born stale:
     its proofs may have read half the batch, so it keeps no row and
     must never admit, before or after the batch lands. *)
  let certificate =
    Kernel.batch_principals w.kernel (fun () ->
        Principal.Db.add_member w.db w.staff
          (Principal.Ind (Principal.individual "newhire"));
        Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
          ~namespace:(Kernel.namespace w.kernel) ~extension:"racer" ~imports:[ store ]
          ())
  in
  check "born-stale certificate never admits" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel)
       ~namespace:(Kernel.namespace w.kernel) ~subject:w.alice_sub store)

(* {1 Per-subject revocation}

   A certificate keeps each cover's own row, so an edit revokes only
   for the principals whose row it moves. *)

let relay_certificate w = Option.get (Kernel.certificate_of w.kernel "relay")

let test_bob_edit_keeps_alice_proved () =
  Metrics.set_enabled true;
  let w = build_world () in
  let bob_sub = Subject.make w.bob (Subject.clearance w.alice_sub) in
  let call subject = Linker.Linked.call w.relay ~subject store [] in
  Alcotest.(check int) "bob proved before his edit" 0 (records w (fun () -> call bob_sub));
  (* bob leaves staff: his row moves, alice's does not. *)
  Principal.Db.remove_member w.db w.staff (Principal.Ind w.bob);
  let n = 10 in
  let audit0 = audit_total w and hits0 = counter "handle.hits" in
  for _ = 1 to n do
    check "alice served" true (call w.alice_sub = Ok (Value.int 7))
  done;
  Alcotest.(check int) "alice's calls wrote no audit record" audit0 (audit_total w);
  Alcotest.(check int) "each was a proved dispatch" (hits0 + n) (counter "handle.hits");
  let audit = Reference_monitor.audit (Kernel.monitor w.kernel) in
  let denied0 = Audit.denied_total audit in
  (match call bob_sub with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "bob served from the proof after leaving staff"
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e));
  check "bob's denial is audited (checked path)" true (Audit.denied_total audit > denied0);
  Alcotest.(check int) "bob's call was no proved dispatch" (hits0 + n) (counter "handle.hits")

(* Each refusal of the per-subject test, on a fresh world where alice
   is admitted first. *)
let test_admission_refusals () =
  let bottom w = Subject.clearance w.alice_sub in
  let cases =
    [
      ( "unregistered principal",
        fun w -> Subject.make (Principal.individual "ghost") (bottom w), relay_certificate w );
      ( "uncovered principal",
        fun w ->
          let carol = Principal.individual "carol" in
          Principal.Db.add_individual w.db carol;
          Subject.make carol (bottom w), relay_certificate w );
      ( "session above e_max",
        fun w ->
          let top = Security_class.top (Kernel.hierarchy w.kernel) (Kernel.universe w.kernel) in
          Subject.make w.alice top, relay_certificate w );
      ( "integrity mismatch",
        fun w -> Subject.make ~integrity:(bottom w) w.alice (bottom w), relay_certificate w );
      ( "moved row",
        fun w ->
          Principal.Db.remove_member w.db w.eng (Principal.Ind w.alice);
          w.alice_sub, relay_certificate w );
      ( "born-stale certificate",
        fun w ->
          ( w.alice_sub,
            Kernel.batch_principals w.kernel (fun () ->
                Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
                  ~namespace:(Kernel.namespace w.kernel) ~extension:"racer"
                  ~imports:[ store ] ()) ) );
    ]
  in
  List.iter
    (fun (label, case) ->
      let w = build_world () in
      check (label ^ ": alice admitted first") true
        (Certificate.admits_subject (relay_certificate w) ~db:w.db w.alice_sub);
      let subject, certificate = case w in
      check (label ^ " refused") false (Certificate.admits_subject certificate ~db:w.db subject))
    cases

(* The same discipline as call_handle's pin: equal deltas against an
   empty baseline mean the loop allocated exactly zero words. *)
let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let test_admission_allocates_nothing () =
  let w = build_world () in
  let certificate = relay_certificate w in
  let run () =
    for _ = 1 to 10_000 do
      ignore (Certificate.admits_subject certificate ~db:w.db w.alice_sub)
    done
  in
  run ();
  let baseline = minor_delta (fun () -> ()) in
  Alcotest.(check (float 0.)) "cover lookup, generation unmoved" baseline (minor_delta run);
  (* An edit that moves somebody else: the test falls to alice's row.
     The first probe may pay the snapshot refresh. *)
  Principal.Db.add_member w.db w.visitors (Principal.Ind (Principal.individual "guest"));
  check "the generation moved" true
    (Principal.Db.generation w.db <> certificate.Certificate.db_generation);
  check "alice still admitted" true (Certificate.admits_subject certificate ~db:w.db w.alice_sub);
  Alcotest.(check (float 0.)) "cover lookup plus row rule" baseline (minor_delta run)

(* {1 Profiles} *)

let test_profile_enforcement () =
  (* A prefix that excludes /svc: the transitive store proof must come
     out Depends, so the certificate is not fully certified and the
     call falls back to the checked path. *)
  let w =
    build_world
      ~front_profile:
        (Certificate.make_profile ~name:"ext-only"
           ~prefixes:[ Path.of_string "/ext" ] ())
      ()
  in
  let certificate = Option.get (Linker.Linked.certificate w.front) in
  check "import inside the prefix certifies" true
    (match Certificate.verdict_for certificate fetch with
    | Some verdict -> Verdict.equal verdict Verdict.Always_allow
    | None -> false);
  check "import outside the prefix proves Depends" true
    (match Certificate.verdict_for certificate store with
    | Some verdict -> Verdict.equal verdict Verdict.Depends
    | None -> false);
  check "not fully certified under the narrow profile" false
    (Certificate.fully_certified certificate);
  check "no chain handle outside the profile" true
    (Linker.Linked.chain_handle w.front store = None);
  (* The call itself still works — through the monitor. *)
  check "checked path still serves" true
    (Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store []
    = Ok (Value.int 7));
  (* A profile without Execute certifies nothing at all. *)
  let w2 =
    build_world
      ~front_profile:
        (Certificate.make_profile ~name:"listing" ~modes:[ Access_mode.List ] ())
      ()
  in
  let certificate2 = Option.get (Linker.Linked.certificate w2.front) in
  check "no Execute in the profile: nothing certifies" true
    (List.for_all
       (fun (proof : Certificate.import_proof) ->
         Verdict.equal proof.Certificate.verdict Verdict.Depends)
       certificate2.Certificate.proofs)

(* {1 Expiry} *)

let test_expiry () =
  let w =
    build_world
      ~front_profile:(Certificate.make_profile ~name:"short" ~validity:2 ())
      ()
  in
  let certificate = Option.get (Linker.Linked.certificate w.front) in
  check "horizon recorded" true (certificate.Certificate.expires_at = Some 2);
  (* Lazy expiry: admits itself refuses at the horizon, sweep or no
     sweep — and the default now fails closed for expiring certs. *)
  check "admits inside the horizon" true
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel)
       ~namespace:(Kernel.namespace w.kernel) ~subject:w.alice_sub ~now:1 fetch);
  check "admits refuses at the horizon (lazy)" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel)
       ~namespace:(Kernel.namespace w.kernel) ~subject:w.alice_sub ~now:2 fetch);
  check "epoch-ignorant callers fail closed" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel)
       ~namespace:(Kernel.namespace w.kernel) ~subject:w.alice_sub fetch);
  (* Eager sweep at the horizon: the table entry is reclaimed and the
     proof stripped, so front's Linked.call falls back to the checked
     path; the chain handle keeps serving on its own coordinates. *)
  check "chain call serves before expiry" true
    (Linker.Linked.call_chain w.front store [] = Ok (Value.int 7));
  let call_fetch () = Linker.Linked.call w.front ~subject:w.alice_sub fetch [] in
  let proved = records w call_fetch in
  check "first tick: still alive" true
    (Kernel.advance_cert_epoch w.kernel = 1
    && Kernel.certificate_of w.kernel "front" <> None);
  check "second tick sweeps" true
    (Kernel.advance_cert_epoch w.kernel = 2
    && Kernel.certificate_of w.kernel "front" = None);
  check "swept Linked.call is audited" true (records w call_fetch > proved);
  let t0 = audit_total w in
  check "chain handle serves after the sweep" true
    (Linker.Linked.call_chain w.front store [] = Ok (Value.int 7));
  Alcotest.(check int) "as an unaudited handle hit" t0 (audit_total w);
  (* Its own coordinates still bind it: an epoch bump sends the next
     chain call through the checked path. *)
  let monitor = Kernel.monitor w.kernel in
  Reference_monitor.set_policy monitor (Reference_monitor.policy monitor);
  check "chain call after an epoch bump is checked" true
    (records w (fun () -> Linker.Linked.call_chain w.front store []) > 0);
  check "checked path still serves after expiry" true
    (Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store []
    = Ok (Value.int 7))

(* {1 Delegation} *)

let test_delegation () =
  let w =
    build_world
      ~front_profile:
        (Certificate.make_profile ~name:"deleg" ~max_depth:2 ~validity:8 ())
      ()
  in
  let bottom = Subject.effective_class w.alice_sub in
  (* The child's cover is the meet of the parent's proof and the cap:
     authority only narrows. *)
  (match
     Kernel.delegate_certificate w.kernel ~parent:"front" ~cap:bottom
       ~extension:"front/worker" ~imports:[ store ] ()
   with
  | Error e -> Alcotest.failf "delegate: %s" e
  | Ok child ->
    check "delegated certificate fully certified" true
      (Certificate.fully_certified child);
    check "covers at the meet" true
      (Array.for_all
         (fun (cover : Certificate.cover) ->
           Security_class.equal cover.Certificate.e_max bottom)
         child.Certificate.covers);
    check "depth and cap recorded" true
      (match child.Certificate.delegation with
      | Some d ->
        d.Certificate.depth = 1
        && d.Certificate.cap = Some bottom
        && String.equal d.Certificate.delegated_by "front"
      | None -> false);
    check "expires no later than the parent" true
      (child.Certificate.expires_at = Some 8);
    (* The delegated certificate serves the worker's calls. *)
    check "delegated caller on the fast path" true
      (Kernel.certificate_admits w.kernel ~caller:"front/worker" ~subject:w.alice_sub
         store));
  (* Chain depth: 2 fits the profile, 3 exceeds it. *)
  (match
     Kernel.delegate_certificate w.kernel ~parent:"front/worker"
       ~extension:"front/worker2" ~imports:[ store ] ()
   with
  | Ok child ->
    check "depth 2 inside the cap" true
      (match child.Certificate.delegation with
      | Some d -> d.Certificate.depth = 2
      | None -> false)
  | Error e -> Alcotest.failf "depth-2 delegate: %s" e);
  (match
     Kernel.delegate_certificate w.kernel ~parent:"front/worker2"
       ~extension:"front/worker3" ~imports:[ store ] ()
   with
  | Ok _ -> Alcotest.fail "depth 3 granted past max_depth 2"
  | Error _ -> ());
  (* Principals the parent does not cover are dropped; a parent that
     is not fully certified refuses to delegate at all. *)
  let hollow =
    Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:(Clearance.create ())
      ~namespace:(Kernel.namespace w.kernel) ~extension:"hollow" ~imports:[ store ] ()
  in
  (match
     Certificate.delegate ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
       ~namespace:(Kernel.namespace w.kernel) ~parent:hollow ~extension:"orphan"
       ~imports:[ store ] ()
   with
  | Ok _ -> Alcotest.fail "uncertified parent delegated"
  | Error _ -> ());
  (* An expired parent refuses too. *)
  let parent = Option.get (Kernel.certificate_of w.kernel "front") in
  (match
     Certificate.delegate ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
       ~namespace:(Kernel.namespace w.kernel) ~parent ~now:9 ~extension:"late"
       ~imports:[ store ] ()
   with
  | Ok _ -> Alcotest.fail "expired parent delegated"
  | Error _ -> ())

(* {1 CRL-style revocation} *)

let test_crl_revocation () =
  let w = build_world () in
  let epoch0 = Reference_monitor.policy_epoch (Kernel.monitor w.kernel) in
  (* By prefix: only front's proofs import under /ext/relay. *)
  check "prefix CRL revokes exactly the matching certificate" true
    (Kernel.revoke_by_prefix w.kernel (Path.of_string "/ext/relay") = 1);
  check "front revoked" true (Kernel.certificate_of w.kernel "front" = None);
  check "relay untouched" true (Kernel.certificate_of w.kernel "relay" <> None);
  check "relay still admits" true
    (Kernel.certificate_admits w.kernel ~caller:"relay" ~subject:w.alice_sub store);
  (* By principal: bob is covered by the remaining certificate. *)
  check "principal CRL sweeps the remaining cover" true
    (Kernel.revoke_by_principal w.kernel w.bob = 1);
  check "table empty" true (Kernel.certificates w.kernel = []);
  (* No global epoch bump: unrelated cached state is untouched. *)
  check "no policy-epoch bump" true
    (Reference_monitor.policy_epoch (Kernel.monitor w.kernel) = epoch0);
  (* A principal nobody covers revokes nothing. *)
  let w2 = build_world () in
  check "uncovered principal revokes nothing" true
    (Kernel.revoke_by_principal w2.kernel (Principal.individual "mallory") = 0);
  check "unmatched prefix revokes nothing" true
    (Kernel.revoke_by_prefix w2.kernel (Path.of_string "/nowhere") = 0)

(* {1 The twin-kernel differential oracle} *)

type otwin = {
  okernel : Kernel.t;
  links : Linker.Linked.t list;  (* relay, front, front/worker *)
  store_meta : Meta.t;
  fetch_meta : Meta.t;
  svc_meta : Meta.t;
}

type oworld = {
  odb : Principal.Db.t;
  oregistry : Clearance.t;
  inds : Principal.individual array;
  grps : Principal.group array;  (* 0 staff (ACL-named), 1 eng (nested), 2 visitors *)
  subjects : Subject.t array;
  link_subject : Subject.t;  (* alice at her clearance: links every extension *)
  cert_side : otwin;  (* probed through Linked.call and Linked.call_chain *)
  full_side : otwin;  (* probed through the checked Kernel.call *)
}

let oclasses hierarchy universe =
  [|
    Security_class.bottom hierarchy universe;
    Security_class.make
      (Level.of_name_exn hierarchy "organization")
      (Category.of_names universe [ "d1" ]);
    Security_class.top hierarchy universe;
  |]

let oprofile =
  Certificate.make_profile ~name:"oracle" ~prefixes:[ Path.of_string "/" ] ~max_depth:3
    ~validity:2 ()

let build_otwin db registry hierarchy universe admin grps ~link_subject =
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ~registry ~db ~admin ~hierarchy ~universe ()
  in
  (* The target starts group-gated, so a membership edit can end a
     lifecycle certificate for the subject it moves. *)
  let store_meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow (Acl.Group grps.(0)) [ Access_mode.List; Access_mode.Execute ];
             Acl.allow Acl.Everyone [ Access_mode.List ];
           ])
      (Security_class.bottom hierarchy universe)
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store ~meta:store_meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice = Subject.principal link_subject in
  let link ?profile ext =
    match Linker.link ?profile kernel ~subject:link_subject ext with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  let relay =
    link
      (Extension.make ~name:"relay" ~author:alice ~imports:[ store ]
         ~provides:
           [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
         ())
  in
  let front =
    link ~profile:oprofile (Extension.make ~name:"front" ~author:alice ~imports:[ fetch ] ())
  in
  (* The delegation target: [recertify] replaces its own certificate
     with one delegated from front's, so delegated proofs serve its
     Linked.call. *)
  let worker =
    link ~profile:oprofile
      (Extension.make ~name:"front/worker" ~author:alice ~imports:[ store ] ())
  in
  let meta_at path =
    match Namespace.find (Kernel.namespace kernel) (Path.of_string path) with
    | Ok node -> Namespace.meta node
    | Error _ -> failwith ("oracle twin: " ^ path ^ " missing")
  in
  {
    okernel = kernel;
    links = [ relay; front; worker ];
    store_meta;
    fetch_meta = meta_at "/ext/relay/fetch";
    svc_meta = meta_at "/svc";
  }

let build_oworld () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let inds = Array.map Principal.individual [| "alice"; "bob"; "carol"; "mallory" |] in
  Array.iter (Principal.Db.add_individual db) inds;
  let grps = Array.map Principal.group [| "staff"; "eng"; "visitors" |] in
  Array.iter (Principal.Db.add_group db) grps;
  (* staff >= eng (nested), alice in eng, bob and carol in staff:
     edits to either group move a covered principal's row; visitors
     holds none.  Every registered principal starts inside
     staff, so the store proofs hold from the first sweep. *)
  Principal.Db.add_member db grps.(0) (Principal.Grp grps.(1));
  Principal.Db.add_member db grps.(1) (Principal.Ind inds.(0));
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(1));
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(2));
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
      Subject.make inds.(0) klasses.(0);
      Subject.make inds.(1) klasses.(0);
      Subject.make inds.(2) klasses.(2);
      Subject.make inds.(3) klasses.(0);
    |]
  in
  let link_subject = subjects.(0) in
  let twin () = build_otwin db registry hierarchy universe admin grps ~link_subject in
  {
    odb = db;
    oregistry = registry;
    inds;
    grps;
    subjects;
    link_subject;
    cert_side = twin ();
    full_side = twin ();
  }

let tally = Proved_probe.tally ()

let sweep world =
  let twin (side : otwin) = { Proved_probe.kernel = side.okernel; links = side.links } in
  Proved_probe.sweep tally ~cert_twin:(twin world.cert_side) ~full_twin:(twin world.full_side)
    ~subjects:world.subjects ~link_subject:world.link_subject

(* {2 Churn: applied to both twins in lockstep}

   Decision-relevant state (ACLs, membership, policy, labels) mutates
   on both sides; lifecycle state (expiry ticks, CRL revocations,
   re-certification, delegation) mutates only the certificate side —
   it may darken the fast path, never change an answer. *)

let oracle_acls world =
  let alice = world.inds.(0) and bob = world.inds.(1) and mallory = world.inds.(3) in
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
    Acl.of_entries
      [ Acl.allow (Acl.Individual alice) [ Access_mode.List; Access_mode.Execute ] ];
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ];
    (* every registered session may call, so a proof holds; only the
       unregistered mallory, outside every cover, is denied *)
    Acl.of_entries
      [
        Acl.deny (Acl.Individual mallory) [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ];
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

(* Re-issue the lifecycle proofs on the certificate side only —
   exactly what a re-link does — with the oracle profile (2-epoch
   validity, so later expiry ticks bite) and a delegated child riding
   along when the parent qualifies. *)
let recertify world =
  let kernel = world.cert_side.okernel in
  List.iter
    (fun (name, imports) ->
      let certificate =
        Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry:world.oregistry
          ~namespace:(Kernel.namespace kernel) ~profile:oprofile
          ~now:(Kernel.cert_epoch kernel) ~extension:name ~imports ()
      in
      Kernel.note_certificate kernel certificate)
    [ "relay", [ store ]; "front", [ fetch; store ] ];
  match
    Kernel.delegate_certificate kernel ~parent:"front" ~extension:"front/worker"
      ~imports:[ store ] ()
  with
  | Ok _ -> ()
  | Error _ ->
    (* the parent did not qualify under current state: make sure no
       stale child certificate lingers from an earlier round *)
    Kernel.revoke_certificate kernel "front/worker"

let apply_churn world (kind, a, b) =
  match kind mod 8 with
  | 0 ->
    let variants = oracle_acls world in
    let acl = variants.(b mod Array.length variants) in
    let cert_meta, full_meta = twin_metas world (a mod 3) in
    Meta.set_acl_raw cert_meta acl;
    Meta.set_acl_raw full_meta acl
  | 1 ->
    (* membership churn in covered groups (staff, eng) and the
       uncovered one (visitors) — the shared db keeps it identical on
       both sides *)
    let group = world.grps.(a mod Array.length world.grps) in
    let member = Principal.Ind world.inds.(b mod Array.length world.inds) in
    (try
       if b mod 2 = 0 then Principal.Db.add_member world.odb group member
       else Principal.Db.remove_member world.odb group member
     with Invalid_argument _ -> ())
  | 2 ->
    let policy = oracle_policies.(b mod Array.length oracle_policies) in
    Reference_monitor.set_policy (Kernel.monitor world.cert_side.okernel) policy;
    Reference_monitor.set_policy (Kernel.monitor world.full_side.okernel) policy
  | 3 ->
    let hierarchy = Kernel.hierarchy world.cert_side.okernel in
    let universe = Kernel.universe world.cert_side.okernel in
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
  | 4 ->
    (* expiry tick + eager sweep on the certificate side: certificates
       issued >= 2 recertifications ago fall off the fast path *)
    ignore (Kernel.advance_cert_epoch world.cert_side.okernel)
  | 5 ->
    (* CRL-style revocation on the certificate side *)
    if b mod 2 = 0 then
      ignore
        (Kernel.revoke_by_principal world.cert_side.okernel
           world.inds.(a mod Array.length world.inds))
    else
      ignore
        (Kernel.revoke_by_prefix world.cert_side.okernel
           (if a mod 2 = 0 then Path.of_string "/ext/relay" else Path.of_string "/svc"))
  | 6 ->
    (* unrelated churn: visitors gains or loses a guest, which moves
       no covered row; certificates must keep admitting through this *)
    let guest = Principal.individual (Printf.sprintf "guest-%d" (b mod 7)) in
    (try
       if b mod 2 = 0 then
         Principal.Db.add_member world.odb world.grps.(2) (Principal.Ind guest)
       else Principal.Db.remove_member world.odb world.grps.(2) (Principal.Ind guest)
     with Invalid_argument _ -> ())
  | _ -> recertify world

let prop_oracle =
  QCheck.Test.make ~name:"certificate lifecycle = full monitor under churn" ~count:120
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun churn ->
      let world = build_oworld () in
      sweep world
      && List.for_all
           (fun op ->
             apply_churn world op;
             sweep world)
           churn)

let test_probe_volume () =
  (* Runs after the QCheck case by suite order; the oracle must have
     executed the mandated >= 10k randomized probes, and the proved
     path must actually have served some of them. *)
  check "over 10k differential probes" true (tally.probes >= 10_000);
  check "proved dispatches exercised" true (tally.fast > 0)

let suite =
  [
    Alcotest.test_case "open_handle is audited under a certificate" `Quick
      test_open_is_audited;
    Alcotest.test_case "revoke strips proofs, closes no handle" `Quick
      test_revoke_strips_proofs;
    Alcotest.test_case "empty registry certifies nothing" `Quick
      test_empty_registry_proves_nothing;
    Alcotest.test_case "row rule survives unrelated churn" `Quick test_row_rule_survival;
    Alcotest.test_case "born stale under a racing batch" `Quick test_born_stale_under_batch;
    Alcotest.test_case "bob's edit leaves alice proved" `Quick test_bob_edit_keeps_alice_proved;
    Alcotest.test_case "admission refusals" `Quick test_admission_refusals;
    Alcotest.test_case "admission allocates nothing" `Quick test_admission_allocates_nothing;
    Alcotest.test_case "profiles gate modes and prefixes" `Quick test_profile_enforcement;
    Alcotest.test_case "expiry: lazy admits + eager sweep" `Quick test_expiry;
    Alcotest.test_case "delegation narrows at the meet, capped depth" `Quick
      test_delegation;
    Alcotest.test_case "CRL revocation is exact, no epoch bump" `Quick test_crl_revocation;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "differential probe volume" `Quick test_probe_volume;
  ]
