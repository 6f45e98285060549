(* The certificate lifecycle (Exsec_analysis.Certificate +
   Kernel lifecycle surface): per-subject invalidation by the row
   rule, profiles, expiry epochs, delegation chains, CRL-style
   revocation and the lifecycle counters.  Every handle is
   a monitor decision: a certificate mints none and closes none, so
   revoking or expiring one strips the proofs [Linked.call] serves
   from, and every handle keeps its own validity rule.  Also pinned: a
   fold of Verdict.both from Always_allow over no covers is
   Always_allow, so a certificate issued under an empty clearance
   registry must not mark every import vacuously Always_allow.  The
   reference oracle (oracle.ml) holds every proved call to the
   interpreted monitor under lifecycle churn. *)

open Exsec_core
open Exsec_extsys
module Metrics = Exsec_obs.Metrics
module Verdict = Exsec_analysis.Verdict
module Certificate = Exsec_analysis.Certificate

let check = Alcotest.(check bool)

let counter name =
  let snap = Metrics.snapshot () in
  match List.assoc_opt name snap.Metrics.counters with Some v -> v | None -> 0

(* Runs [f] with metrics on and restores the state it found, so no
   later case inherits collection. *)
let metered f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) f

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
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
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
  metered @@ fun () ->
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
  (* The regression: a fold of Verdict.both from Always_allow over no
     covers is Always_allow, so these proofs used to come out
     vacuously certified. *)
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
  metered @@ fun () ->
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

(* A certificate issued inside a batch proves over the snapshot
   published before it, which is what the monitor decides under until
   the batch exits.  The batch adds newhire to staff and removes bob:
   inside it, the certificate admits alice and bob, as the checked path
   grants both; after it, bob's row has moved and the certificate
   refuses him, as the checked path does, while alice's row is kept
   and she stays admitted. *)
let test_issued_in_batch () =
  let w = build_world () in
  let monitor = Kernel.monitor w.kernel and namespace = Kernel.namespace w.kernel in
  let bob_sub = Subject.make w.bob (Subject.clearance w.alice_sub) in
  let agree certificate when_ (name, subject, admitted) =
    let label = Printf.sprintf "%s, %s" name when_ in
    check (label ^ ": certificate") admitted
      (Certificate.admits certificate ~monitor ~namespace ~subject store);
    check (label ^ ": checked path") admitted
      (Result.is_ok
         (Resolver.resolve (Kernel.resolver w.kernel) ~subject ~mode:Access_mode.Execute store))
  in
  let certificate =
    Kernel.batch_principals w.kernel (fun () ->
        Principal.Db.add_member w.db w.staff (Principal.Ind (Principal.individual "newhire"));
        Principal.Db.remove_member w.db w.staff (Principal.Ind w.bob);
        let certificate =
          Certificate.issue ~monitor ~registry:w.registry ~namespace ~extension:"racer"
            ~imports:[ store ] ()
        in
        List.iter (agree certificate "in the batch")
          [ "alice", w.alice_sub, true; "bob", bob_sub, true ];
        certificate)
  in
  List.iter (agree certificate "after the batch")
    [ "alice", w.alice_sub, true; "bob", bob_sub, false ]

(* A writer in another domain builds each snapshot between moving the
   lists and publishing it.  A certificate issued meanwhile proves over
   the snapshot it read and keeps that snapshot's rows, so every
   certificate settles, and none on rows that describe another state
   than its proofs read: x toggles in and out of g, the only group the
   ACL admits, so a settled proof is [Always_allow] exactly when x's
   kept row holds g.  Issues for a quarter second once the writer
   runs. *)
let test_born_stale_under_edit () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let x = Principal.individual "x" in
  let g = Principal.group "g" in
  Principal.Db.add_member db g (Principal.Ind admin);
  Principal.Db.add_individual db x;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry x bottom;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow (Acl.Group g) [ Access_mode.List; Access_mode.Execute ];
             Acl.allow Acl.Everyone [ Access_mode.List ];
           ])
      bottom
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store ~meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup get: %s" (Service.error_to_string e));
  let g_id = Principal.Db.Snapshot.group_id (Principal.Db.snapshot db) g in
  let stop = Atomic.make false in
  (* Bursts of toggles, each followed by a short sleep: the bursts
     race the issues, and the sleeps let some issue overlap no edit
     even on one core. *)
  let writer =
    Stdlib.Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          for _ = 1 to 64 do
            Principal.Db.add_member db g (Principal.Ind x);
            Principal.Db.remove_member db g (Principal.Ind x)
          done;
          Unix.sleepf 0.0002
        done)
  in
  let generation0 = Principal.Db.generation db in
  while Principal.Db.generation db = generation0 do
    Stdlib.Domain.cpu_relax ()
  done;
  let settled = ref 0 and torn = ref 0 in
  let start = Unix.gettimeofday () in
  while Unix.gettimeofday () -. start < 0.25 do
    let certificate =
      Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry
        ~namespace:(Kernel.namespace kernel) ~extension:"racer" ~imports:[ store ] ()
    in
    if certificate.Certificate.db_generation <> -1 then begin
      incr settled;
      let proved =
        List.for_all
          (fun (proof : Certificate.import_proof) -> proof.verdict = Verdict.Always_allow)
          certificate.Certificate.proofs
      in
      let row = (certificate.Certificate.covers.(0).Certificate.row :> int array) in
      if proved <> Array.mem g_id row then incr torn
    end
  done;
  Atomic.set stop true;
  Stdlib.Domain.join writer;
  check "some certificate settled" true (!settled > 0);
  Alcotest.(check int) "settled proofs that read another state than their rows" 0 !torn

(* {1 Per-subject revocation}

   A certificate keeps each cover's own row, so an edit revokes only
   for the principals whose row it moves. *)

let relay_certificate w = Option.get (Kernel.certificate_of w.kernel "relay")

let test_bob_edit_keeps_alice_proved () =
  metered @@ fun () ->
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
      ( "issued in a batch that moves her row",
        fun w ->
          ( w.alice_sub,
            Kernel.batch_principals w.kernel (fun () ->
                Principal.Db.remove_member w.db w.eng (Principal.Ind w.alice);
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
  let policy0 = Reference_monitor.policy (Kernel.monitor w.kernel) in
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
    (Reference_monitor.policy (Kernel.monitor w.kernel) == policy0);
  (* A principal nobody covers revokes nothing. *)
  let w2 = build_world () in
  check "uncovered principal revokes nothing" true
    (Kernel.revoke_by_principal w2.kernel (Principal.individual "mallory") = 0);
  check "unmatched prefix revokes nothing" true
    (Kernel.revoke_by_prefix w2.kernel (Path.of_string "/nowhere") = 0)

(* {1 Counter conservation}

   Every certificate that enters the kernel table leaves it through
   exactly one of expiry or revocation, and each delegation is
   counted: two delegations, one expiry sweep and two CRL revocations
   empty the table.  No certificate here is replaced in place, which
   counts an issue with no leave. *)

let test_counters_conserve () =
  metered @@ fun () ->
  let names = [ "cert.issued"; "cert.expired"; "cert.revoked"; "cert.delegations" ] in
  let before = List.map counter names in
  let w =
    build_world
      ~front_profile:(Certificate.make_profile ~name:"deleg" ~max_depth:2 ~validity:4 ())
      ()
  in
  let delegate parent extension =
    match Kernel.delegate_certificate w.kernel ~parent ~extension ~imports:[ store ] () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "delegate %s: %s" extension e
  in
  delegate "front" "front/worker";
  delegate "front/worker" "front/worker2";
  (* Two replacements: each certificate replaced leaves the table, so
     it counts as revoked.  A second delegation into front/worker, and
     relay re-issued as the oracle's recertify does. *)
  delegate "front" "front/worker";
  Kernel.note_certificate w.kernel
    (Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
       ~namespace:(Kernel.namespace w.kernel) ~now:(Kernel.cert_epoch w.kernel)
       ~extension:"relay" ~imports:[ store ] ());
  (match
     Linker.link
       ~profile:(Certificate.make_profile ~name:"short" ~validity:2 ())
       w.kernel ~subject:w.alice_sub
       (Extension.make ~name:"timed" ~author:w.alice ~imports:[ store ] ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "link timed: %a" Linker.pp_link_error e);
  ignore (Kernel.advance_cert_epoch w.kernel);
  ignore (Kernel.advance_cert_epoch w.kernel);
  check "the short-lived certificate expired" true (Kernel.certificate_of w.kernel "timed" = None);
  Alcotest.(check int) "prefix CRL revokes front" 1
    (Kernel.revoke_by_prefix w.kernel (Path.of_string "/ext/relay"));
  Alcotest.(check int) "principal CRL revokes relay and both delegations" 3
    (Kernel.revoke_by_principal w.kernel w.bob);
  check "table empty" true (Kernel.certificates w.kernel = []);
  match List.map2 (fun name n0 -> counter name - n0) names before with
  | [ issued; expired; revoked; delegations ] ->
    Alcotest.(check int) "cert.issued = cert.expired + cert.revoked" issued (expired + revoked);
    Alcotest.(check int) "cert.delegations counted" 3 delegations
  | _ -> assert false


let suite =
  [
    Alcotest.test_case "open_handle is audited under a certificate" `Quick
      test_open_is_audited;
    Alcotest.test_case "revoke strips proofs, closes no handle" `Quick
      test_revoke_strips_proofs;
    Alcotest.test_case "empty registry certifies nothing" `Quick
      test_empty_registry_proves_nothing;
    Alcotest.test_case "row rule survives unrelated churn" `Quick test_row_rule_survival;
    Alcotest.test_case "a certificate issued in a batch proves over the published snapshot"
      `Quick test_issued_in_batch;
    Alcotest.test_case "born stale under a racing edit" `Quick test_born_stale_under_edit;
    Alcotest.test_case "bob's edit leaves alice proved" `Quick test_bob_edit_keeps_alice_proved;
    Alcotest.test_case "admission refusals" `Quick test_admission_refusals;
    Alcotest.test_case "admission allocates nothing" `Quick test_admission_allocates_nothing;
    Alcotest.test_case "profiles gate modes and prefixes" `Quick test_profile_enforcement;
    Alcotest.test_case "expiry: lazy admits + eager sweep" `Quick test_expiry;
    Alcotest.test_case "delegation narrows at the meet, capped depth" `Quick
      test_delegation;
    Alcotest.test_case "CRL revocation is exact, no epoch bump" `Quick test_crl_revocation;
    Oracle.routes_case "certificate lifecycle = full monitor under churn"
      ~routes:[ Oracle.Proved ]
      ~kinds:[ "recertify"; "tick"; "revoke-principal"; "revoke-prefix"; "batch" ];
    Oracle.volume_case "differential probe volume" ~routes:[ Oracle.Proved ];
    Alcotest.test_case "lifecycle counters conserve" `Quick test_counters_conserve;
  ]
