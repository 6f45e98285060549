module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace

(* Decision-layer instruments.  Counters cost one gated atomic add;
   the decide histogram samples 1 of 32 decisions because a clock
   pair (~100 ns) would dominate the sub-100-ns grant path (see the
   overhead discipline in DESIGN.md, "Observability").  Grants are not
   counted separately: they are [decisions - denied].  All are inert
   until [Metrics.set_enabled true]. *)
let m_decisions = Metrics.counter "monitor.decisions"
let m_denied = Metrics.counter "monitor.denied"
let m_mac_denied = Metrics.counter "monitor.mac_denied"
let m_decide_ns = Metrics.histogram ~sample_shift:5 "monitor.decide_ns"

exception Access_denied of {
  object_name : string;
  mode : Access_mode.t;
  denial : Decision.denial;
}

type t = {
  db : Principal.Db.t;
  mutable policy : Policy.t;
  policy_epoch : int Atomic.t;
      (* Generation counter for the policy, mirroring Meta.generation
         for metadata: [set_policy] writes the policy first and bumps
         the epoch after, so an artifact stamped with the epoch read
         before its computation (a certificate, a handle grant) can
         never validate under a policy it was not computed under. *)
  audit : Audit.t;
}

let create ?(policy = Policy.default) ?audit_capacity ?audit_shards db =
  {
    db;
    policy;
    policy_epoch = Atomic.make 0;
    audit = Audit.create ?capacity:audit_capacity ?shards:audit_shards ();
  }

let db monitor = monitor.db
let policy monitor = monitor.policy

let set_policy monitor policy =
  monitor.policy <- policy;
  (* Bump after the policy write lands (data-then-generation, as in
     Meta): any artifact stamped with the previous epoch can never
     validate again. *)
  Atomic.incr monitor.policy_epoch

let audit monitor = monitor.audit
let policy_epoch monitor = Atomic.get monitor.policy_epoch

type stamp = {
  stamp_epoch : int;
  stamp_db_generation : int;
}

(* The global half of the state a reusable decision (a link-time
   certificate, a capability-handle grant) depends on.  Read BEFORE
   the dependent computation, per the data-then-generation discipline:
   a mutation racing with the computation then lands its bump above
   the values recorded here, so the derived artifact is born stale and
   fails closed on its next validation, never wrongly valid. *)
let stamp monitor =
  {
    stamp_epoch = Atomic.get monitor.policy_epoch;
    stamp_db_generation = Principal.Db.generation monitor.db;
  }

let stamp_valid monitor stamp =
  Atomic.get monitor.policy_epoch = stamp.stamp_epoch
  && Principal.Db.generation monitor.db = stamp.stamp_db_generation

(* The discretionary layer is the compiled ACL alone: the object's
   ACL, compiled to flat mode-mask arrays and memoized on its metadata
   (see Acl_compiled / Meta.compiled_acl), answers in a few bitwise
   tests with zero allocation, and a denial names its deny entry from
   the same compiled form.  The subject's snapshot id is memoized on
   the subject, so the population-sized name table is probed once per
   (subject, snapshot), not once per check. *)
let dac_decide monitor ~subject ~(meta : Meta.t) ~mode =
  let compiled = Meta.compiled_acl meta ~db:monitor.db in
  let id = Subject.individual_id subject (Acl_compiled.snapshot compiled) in
  match Acl_compiled.check_id compiled ~id ~subject:(Subject.principal subject) ~mode with
  | Acl_compiled.Granted -> Ok ()
  | Acl_compiled.No_entry -> Error Decision.Dac_no_entry
  | Acl_compiled.Denied who -> Error (Decision.Dac_explicit_deny who)

let mac_decide monitor ~span ~subject ~(meta : Meta.t) ~mode =
  (* Trusted subjects (the TCB) are exempt from the [*]-property: they
     may write down.  Read rules still apply. *)
  if Subject.is_trusted subject && Access_mode.is_write_like mode then begin
    if Trace.active span then Trace.annotate span "mac" "granted";
    Ok ()
  end
  else
    match
      Mac.check ~rule:monitor.policy.Policy.overwrite
        ~subject:(Subject.effective_class subject) ~object_:meta.klass mode
    with
    | Ok () ->
      if Trace.active span then Trace.annotate span "mac" "granted";
      Ok ()
    | Error denial ->
      Metrics.incr m_mac_denied;
      if Trace.active span then Trace.annotate span "mac" "denied";
      Error (Decision.Mac_denied denial)

(* Biba rules apply only when both sides carry integrity labels; the
   TCB exemption mirrors the MAC one. *)
let integrity_decide monitor ~subject ~(meta : Meta.t) ~mode =
  if not monitor.policy.Policy.integrity then Ok ()
  else
    match Subject.integrity subject, meta.integrity with
    | None, _ | _, None -> Ok ()
    | Some subject_integrity, Some object_integrity ->
      if Subject.is_trusted subject && Access_mode.is_write_like mode then Ok ()
      else (
        match Integrity.check ~subject:subject_integrity ~object_:object_integrity mode with
        | Ok () -> Ok ()
        | Error denial -> Error (Decision.Integrity_denied denial))

(* Written as direct matches rather than a Result.bind chain: the bind
   closures would allocate on every call, and the grant path through
   [evaluate] is the allocation-free fast path the compiled-ACL work
   buys (a regression test holds it to zero minor words). *)
let evaluate monitor ~span ~subject ~meta ~mode =
  let dac =
    if monitor.policy.Policy.dac then dac_decide monitor ~subject ~meta ~mode else Ok ()
  in
  match dac with
  | Error denial -> Decision.Denied denial
  | Ok () -> (
    let mac =
      if monitor.policy.Policy.mac then mac_decide monitor ~span ~subject ~meta ~mode
      else Ok ()
    in
    match mac with
    | Error denial -> Decision.Denied denial
    | Ok () -> (
      match integrity_decide monitor ~subject ~meta ~mode with
      | Error denial -> Decision.Denied denial
      | Ok () -> Decision.Granted))

let decide ?(span = Trace.none) monitor ~subject ~meta ~mode =
  Metrics.incr m_decisions;
  let t0 = Metrics.start_timing m_decide_ns in
  let decision = evaluate monitor ~span ~subject ~meta ~mode in
  Metrics.stop_timing m_decide_ns t0;
  if not (Decision.is_granted decision) then Metrics.incr m_denied;
  if Trace.active span then
    Trace.annotate span "decision"
      (match decision with
      | Decision.Granted -> "granted"
      | Decision.Denied _ -> "denied");
  decision

let check ?span monitor ~subject ~(meta : Meta.t) ~object_name ~mode =
  let decision = decide ?span monitor ~subject ~meta ~mode in
  Audit.record monitor.audit ~subject ~object_name ~object_id:meta.Meta.id
    ~object_class:meta.klass ~mode decision;
  decision

let check_exn monitor ~subject ~meta ~object_name ~mode =
  match check monitor ~subject ~meta ~object_name ~mode with
  | Decision.Granted -> ()
  | Decision.Denied denial -> raise (Access_denied { object_name; mode; denial })

let set_acl monitor ~subject ~meta ~object_name acl =
  let decision =
    check monitor ~subject ~meta ~object_name ~mode:Access_mode.Administrate
  in
  (match decision with
  | Decision.Granted -> Meta.set_acl_raw meta acl
  | Decision.Denied _ -> ());
  decision

let set_class monitor ~subject ~meta ~object_name klass =
  let decision =
    check monitor ~subject ~meta ~object_name ~mode:Access_mode.Administrate
  in
  (match decision with
  | Decision.Granted -> Meta.set_klass_raw meta klass
  | Decision.Denied _ -> ());
  decision

let check_attach monitor ~subject ~parent ~child ~object_name =
  let dac_result =
    if monitor.policy.Policy.dac then
      dac_decide monitor ~subject ~meta:parent ~mode:Access_mode.Write
    else Ok ()
  in
  let decision =
    match dac_result with
    | Error denial -> Decision.Denied denial
    | Ok () ->
      if
        (not monitor.policy.Policy.mac)
        || Subject.is_trusted subject
        || Security_class.dominates child.Meta.klass (Subject.effective_class subject)
      then Decision.Granted
      else Decision.Denied (Decision.Mac_denied Mac.Write_down)
  in
  Audit.record monitor.audit ~subject ~object_name ~object_id:child.Meta.id
    ~object_class:child.Meta.klass ~mode:Access_mode.Write decision;
  decision
