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

val create :
  ?policy:Policy.t -> ?audit_capacity:int -> ?audit_shards:int -> Principal.Db.t -> t
(** A monitor over the given principal database.  [policy] defaults to
    {!Policy.default}.  [audit_capacity]/[audit_shards] size the
    sharded audit pipeline ({!Audit.create}).

    Discretionary decisions run on the compiled ACL path: each
    object's ACL is compiled to flat mode-mask arrays over interned
    principal ids ({!Acl_compiled}), memoized on its metadata and
    invalidated by the metadata and database generation counters.
    There is no decision cache: every {!decide} evaluates DAC, MAC and
    integrity afresh, and the grant path allocates nothing.

    The monitor is safe to share across OCaml 5 domains: the audit
    pipeline takes one per-shard mutex per record, and the generation
    counters are atomic with a data-then-generation publication order
    (DESIGN.md, "Concurrency model").  Registering {e new} principals
    or groups in the database remains a setup-time operation. *)

val db : t -> Principal.Db.t
val policy : t -> Policy.t

val set_policy : t -> Policy.t -> unit
(** Swap the policy and bump the monitor's policy epoch, so every
    artifact stamped under the old policy (certificates, handle
    grants) stops validating. *)

val audit : t -> Audit.t

val policy_epoch : t -> int
(** The current policy epoch: a monotone counter bumped by every
    {!set_policy}.  Link-time certificates (see [Exsec_analysis]) are
    stamped with the epoch they were proved under and stop admitting
    calls as soon as the epoch moves — the same generation-validation
    scheme {!Meta} uses for compiled ACLs, applied to statically
    certified extensions. *)

type stamp = {
  stamp_epoch : int;  (** {!policy_epoch} at read time *)
  stamp_db_generation : int;  (** {!Principal.Db.generation} at read time *)
}
(** The global half of the state any reusable decision depends on.
    Per-object metadata generations are the other half
    ({!Meta.generation}). *)

val stamp : t -> stamp
(** Read the global generations, for stamping a decision artifact that
    will be reused across calls (a link-time certificate, a
    capability-handle grant).  Call {e before} the dependent
    computation: a mutation racing with the computation then lands its
    bump above the recorded values, so the artifact is born stale and
    fails closed on its next validation instead of wrongly
    validating. *)

val stamp_valid : t -> stamp -> bool
(** [true] while neither global generation has moved since the stamp
    was read. *)

val decide :
  ?span:Exsec_obs.Trace.handle ->
  t -> subject:Subject.t -> meta:Meta.t -> mode:Access_mode.t -> Decision.t
(** Decision without an audit record: the compiled ACL, then MAC,
    then integrity (Biba).  The subject's {e effective} class
    (clearance capped by any static extension class) is used for the
    MAC rules.  An explicit ACL deny names the deny entry that
    decided, exactly as {!Acl.check} would.

    Feeds the [monitor.*] metrics (decision and denial counters, MAC
    denials, and a sampled latency histogram); all of it noop until
    [Exsec_obs.Metrics.set_enabled true].  When [span] carries an
    active trace span, the decision annotates it with [mac] (when the
    MAC layer ran) and the final verdict. *)

val check :
  ?span:Exsec_obs.Trace.handle ->
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  Decision.t
(** {!decide}, recorded in the audit log under [object_name]. *)

val check_exn :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  unit
(** @raise Access_denied when {!check} denies. *)

val set_acl :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  Acl.t ->
  Decision.t
(** Replace an object's ACL; requires [Administrate] on the object.
    Applies the new ACL only when granted. *)

val set_class :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  Security_class.t ->
  Decision.t
(** Relabel an object; requires [Administrate] and, under MAC, is
    treated as a write to the object. *)

val check_attach :
  t ->
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
    additionally subject to a normal [Delete] check.) *)
