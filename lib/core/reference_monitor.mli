(** The central reference monitor.

    One facility decides every access in the system (economy of
    mechanism; paper sections 1.2 and 3): the name space, the kernel's
    call/extend paths and all simulated services route their checks
    through {!check}.  A request is granted only if every enabled
    policy layer — discretionary ACLs and the mandatory lattice —
    grants it, and every decision is recorded in the audit log. *)

exception Access_denied of {
  object_name : string;
  mode : Access_mode.t;
  denial : Decision.denial;
}

type t

val create : ?policy:Policy.t -> ?audit_capacity:int -> Principal.Db.t -> t
(** A monitor over the given principal database.  [policy] defaults to
    {!Policy.default}.  [audit_capacity] sizes the audit ring
    ({!Audit.create}).

    Discretionary decisions run on the compiled ACL path: each
    object's ACL is compiled to flat mode-mask arrays over the
    database's fixed principal ids ({!Acl_compiled}), memoized on the
    metadata value, whose ACL never changes, and recompiled only after
    a group registration when the form compiled a group away
    ({!Meta.compiled_in}); each check reads membership from the
    database's current snapshot.
    There is no decision cache: every {!decide} evaluates DAC, MAC and
    integrity afresh, and the grant path allocates nothing.

    The monitor is safe to share across OCaml 5 domains: the audit
    ring takes no lock (one atomic add and one compare-and-set per
    record), and the policy, like every metadata value, is one
    immutable value published by a single store (DESIGN.md,
    "Concurrency model").  Registering {e new} principals or groups in
    the database remains a setup-time operation. *)

val db : t -> Principal.Db.t

val policy : t -> Policy.t
(** The published policy.  A grant or certificate keeps the value it
    read and stays in force only while this is that very value
    ([==]). *)

val set_policy : t -> Policy.t -> unit
(** Publish a fresh copy of the policy, even when it equals the one in
    force, so every grant and certificate that kept the old value
    stops validating. *)

val audit : t -> Audit.t

val decide :
  ?span:Exsec_obs.Trace.handle ->
  t -> subject:Subject.t -> meta:Meta.t -> mode:Access_mode.t -> Decision.t
(** Decision without an audit record: the compiled ACL, then MAC,
    then integrity (Biba).  The subject's {e effective} class
    (clearance capped by any static extension class) is used for the
    MAC rules.  An explicit ACL deny names the deny entry that
    decided, exactly as {!Acl.check} would.

    The decision is one evaluation under one read of the policy and
    one of the database's published snapshot, and its first denial
    ends it.  A grant allocates nothing, nor does a
    denial other than an explicit ACL deny (which names its entry).

    Observability costs one test: when neither metrics nor tracing is
    on ({!Exsec_obs.Trace.observing}), [decide] is the evaluation
    alone.  Otherwise the same evaluation runs inside the [monitor.*]
    metrics (the decision counter, which also picks the 1 in 32
    decisions the [monitor.decide_ns] histogram times, and the denial
    and MAC-denial counters), and when [span] carries an active trace
    span, the decision annotates it with [mac] (when the MAC layer ran:
    it is on and DAC did not deny) and then the final [decision]. *)

val discretionary :
  Principal.Db.Snapshot.t ->
  Policy.t ->
  subject:Subject.t ->
  meta:Meta.t ->
  mode:Access_mode.t ->
  Decision.t
(** {!decide}'s first half, bare: the object's compiled ACL under the
    snapshot, as the policy switches it.  It reads membership, never
    the subject's class. *)

val mandatory :
  Policy.t -> subject:Subject.t -> meta:Meta.t -> mode:Access_mode.t -> Decision.t
(** {!decide}'s second half, bare: MAC, then Biba, each as the policy
    switches it, with the trusted subject's exemption.  It reads only
    classes, labels and the trusted bit. *)

val check :
  ?span:Exsec_obs.Trace.handle ->
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  Decision.t
(** {!decide}, recorded in the audit log under [object_name]:
    {!check_in} under the context read when the call starts. *)

val check_in :
  observed:bool ->
  span:Exsec_obs.Trace.handle ->
  t ->
  Policy.t ->
  Principal.Db.Snapshot.t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  Decision.t
(** One audited decision under a context the caller read once: the
    monitor's {!policy}, the database's published snapshot, [observed]
    ({!Exsec_obs.Trace.observing}) and [span] (or
    {!Exsec_obs.Trace.none}).  A checked resolution reads them when it
    starts and decides every level under them, so all of its levels
    see one membership state; object metadata is still read per
    object.  Observed, the decision runs inside {!decide}'s counters
    and span and is recorded by {!Audit.record}; bare, it is the
    evaluation and {!Audit.append} alone. *)

val check_exn :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  unit
(** @raise Access_denied when {!check} denies. *)

val check_attach :
  t ->
  Policy.t ->
  Principal.Db.Snapshot.t ->
  subject:Subject.t ->
  parent:Meta.t ->
  child:Meta.t ->
  object_name:string ->
  Decision.t
(** The container rule for creating or removing a directory entry:
    discretionary [Write] on the {e parent} container, and — because
    containers are multi-level (Multics-style "upgraded directories")
    — the mandatory check applies to the {e child}: its class must
    dominate the subject's, so a subject creates or unlinks entries
    only at or above its own class.  (The target of a removal is
    additionally subject to a normal [Delete] check.)  The
    discretionary half is {!decide}'s own DAC step; the check is
    audited but feeds no [monitor.*] metric.

    Like {!check_in}, it decides under a policy and a snapshot the
    caller read: a resolver mutation reads them once and decides its
    walk and this last check under them. *)
