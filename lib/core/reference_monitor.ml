module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace

(* Decision-layer instruments, read only on the observed path (see
   [decide]).  The decide histogram samples 1 of 32 decisions, picked
   by the decision counter itself, because a clock pair (~100 ns)
   would dominate the sub-100-ns grant path (see the overhead
   discipline in DESIGN.md, "Observability").  Grants are not counted
   separately: they are [decisions - denied]. *)
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
      (* the published policy: what a grant or certificate read is
         still in force while this is that very value *)
  audit : Audit.t;
}

let create ?(policy = Policy.default) ?audit_capacity db =
  { db; policy; audit = Audit.create ?capacity:audit_capacity () }

let db monitor = monitor.db
let policy monitor = monitor.policy

(* A fresh copy, even of the policy in force: every swap revokes. *)
let set_policy monitor policy = monitor.policy <- { policy with Policy.dac = policy.Policy.dac }

let audit monitor = monitor.audit

(* The denials that carry no payload, built once: a decision
   allocates only for an explicit deny, which names its entry. *)
let no_entry = Decision.Denied Decision.Dac_no_entry
let read_up = Decision.Denied (Decision.Mac_denied Mac.Read_up)
let write_down = Decision.Denied (Decision.Mac_denied Mac.Write_down)
let blind_overwrite = Decision.Denied (Decision.Mac_denied Mac.Blind_overwrite)
let read_down = Decision.Denied (Decision.Integrity_denied Integrity.Read_down)
let write_up = Decision.Denied (Decision.Integrity_denied Integrity.Write_up)

(* The discretionary layer is the compiled ACL alone: the object's
   ACL, compiled to flat mode-mask arrays and memoized on its metadata
   (see Acl_compiled / Meta.compiled_in), answers in a few bitwise
   tests with zero allocation, and a denial names its deny entry from
   the same compiled form.  Everything keys on the one [snapshot] the
   caller read: the memo's validity, the subject's id (fixed at
   registration and memoized on the subject, so the population-sized
   name table is probed once per subject, not once per check) and the
   membership the check reads. *)
let[@inline] dac_decide_in snapshot ~subject ~(meta : Meta.t) ~mode =
  let compiled = Meta.compiled_in meta snapshot in
  let id = Subject.individual_id subject snapshot in
  match
    Acl_compiled.check_id compiled ~snapshot ~id ~subject:(Subject.principal subject) ~mode
  with
  | Acl_compiled.Granted -> Decision.Granted
  | Acl_compiled.No_entry -> no_entry
  | Acl_compiled.Denied who -> Decision.Denied (Decision.Dac_explicit_deny who)

let[@inline] discretionary snapshot (policy : Policy.t) ~subject ~meta ~mode =
  if policy.Policy.dac then dac_decide_in snapshot ~subject ~meta ~mode else Decision.Granted

(* MAC, then Biba (which applies only when both sides carry integrity
   labels).  Trusted subjects (the TCB) are exempt from the
   [*]-property and from its Biba mirror, so they may write down; read
   rules still apply. *)
let[@inline] mandatory (policy : Policy.t) ~subject ~(meta : Meta.t) ~mode =
  let exempt = Subject.is_trusted subject && Access_mode.is_write_like mode in
  match
    if (not policy.Policy.mac) || exempt then Ok ()
    else
      Mac.check ~rule:policy.Policy.overwrite ~subject:(Subject.effective_class subject)
        ~object_:meta.klass mode
  with
  | Error Mac.Read_up -> read_up
  | Error Mac.Write_down -> write_down
  | Error Mac.Blind_overwrite -> blind_overwrite
  | Ok () -> (
    match Subject.integrity subject, meta.integrity with
    | Some subject_integrity, Some object_integrity
      when policy.Policy.integrity && not exempt -> (
      match Integrity.check ~subject:subject_integrity ~object_:object_integrity mode with
      | Ok () -> Decision.Granted
      | Error Integrity.Read_down -> read_down
      | Error Integrity.Write_up -> write_up)
    | (None | Some _), _ -> Decision.Granted)

(* The whole decision under one policy and one snapshot: the
   discretionary half, then the mandatory one.  Each step answers a
   [Decision.t] and the first denial ends the evaluation, with no
   result box, no closure and no span, so a grant allocates nothing (a
   regression test holds it to zero words). *)
let[@inline] evaluate_in snapshot policy ~subject ~meta ~mode =
  match discretionary snapshot policy ~subject ~meta ~mode with
  | Decision.Denied _ as denied -> denied
  | Decision.Granted -> mandatory policy ~subject ~meta ~mode

(* The evaluation inside its instruments.  The counters and the span's
   fields are read off the decision: the MAC layer ran exactly when it
   is on and DAC did not deny, and it denied exactly when the decision
   is a MAC denial. *)
let decide_observed policy snapshot ~span ~subject ~meta ~mode =
  let t0 = Metrics.start_counted m_decisions m_decide_ns in
  let decision = evaluate_in snapshot policy ~subject ~meta ~mode in
  Metrics.stop_timing m_decide_ns t0;
  (match decision with
  | Decision.Granted -> ()
  | Decision.Denied denial -> (
    Metrics.incr m_denied;
    match denial with
    | Decision.Mac_denied _ -> Metrics.incr m_mac_denied
    | _ -> ()));
  if Trace.active span then begin
    (if policy.Policy.mac then
       match decision with
       | Decision.Denied (Decision.Dac_no_entry | Decision.Dac_explicit_deny _) -> ()
       | Decision.Denied (Decision.Mac_denied _) -> Trace.annotate span "mac" "denied"
       | Decision.Granted | Decision.Denied _ -> Trace.annotate span "mac" "granted");
    Trace.annotate span "decision"
      (match decision with
      | Decision.Granted -> "granted"
      | Decision.Denied _ -> "denied")
  end;
  decision

let decide ?(span = Trace.none) monitor ~subject ~meta ~mode =
  let policy = monitor.policy in
  let snapshot = Principal.Db.snapshot monitor.db in
  if Trace.observing () then decide_observed policy snapshot ~span ~subject ~meta ~mode
  else evaluate_in snapshot policy ~subject ~meta ~mode

(* One audited decision under a context the caller read: the observed
   branch is [decide]'s instruments and [Audit.record]; the bare one is
   the evaluation and the append alone. *)
let check_in ~observed ~span monitor policy snapshot ~subject ~(meta : Meta.t) ~object_name
    ~mode =
  if observed then begin
    let decision = decide_observed policy snapshot ~span ~subject ~meta ~mode in
    Audit.record monitor.audit ~subject ~object_name ~object_id:meta.Meta.id
      ~object_class:meta.klass ~mode decision;
    decision
  end
  else begin
    let decision = evaluate_in snapshot policy ~subject ~meta ~mode in
    Audit.append monitor.audit ~subject ~object_name ~object_id:meta.Meta.id
      ~object_class:meta.klass ~mode decision;
    decision
  end

let check ?(span = Trace.none) monitor ~subject ~meta ~object_name ~mode =
  check_in ~observed:(Trace.observing ()) ~span monitor monitor.policy
    (Principal.Db.snapshot monitor.db) ~subject ~meta ~object_name ~mode

let check_exn monitor ~subject ~meta ~object_name ~mode =
  match check monitor ~subject ~meta ~object_name ~mode with
  | Decision.Granted -> ()
  | Decision.Denied denial -> raise (Access_denied { object_name; mode; denial })

let check_attach monitor (policy : Policy.t) snapshot ~subject ~parent ~child ~object_name =
  let decision =
    match discretionary snapshot policy ~subject ~meta:parent ~mode:Access_mode.Write with
    | Decision.Denied _ as denied -> denied
    | Decision.Granted ->
      if
        (not policy.Policy.mac)
        || Subject.is_trusted subject
        || Security_class.dominates child.Meta.klass (Subject.effective_class subject)
      then Decision.Granted
      else write_down
  in
  Audit.record monitor.audit ~subject ~object_name ~object_id:child.Meta.id
    ~object_class:child.Meta.klass ~mode:Access_mode.Write decision;
  decision
