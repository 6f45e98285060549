(** The base system: one universal name space, one reference monitor,
    one dispatcher — the "central facility to provide naming and
    protection services for the entire system" (paper, section 3).

    The kernel owns the tree under which everything is named:

    - [/svc]      system service interfaces and their procedures
    - [/ext]      extension-provided procedures, one directory each
    - [/threads]  thread objects (subjects that are also objects)

    Service procedures are leaves; calling one requires [Execute] on
    the leaf (and [List] along the path).  Extensible procedures are
    {e events}: leaves whose behaviour is supplied by handlers in the
    dispatcher, selected by the caller's security class. *)

open Exsec_core

type entry = ..
(** The payload of name-space leaves.  Extensible so services (file
    systems, logs) can publish their own object kinds in the same
    tree. *)

type entry +=
  | Proc of Service.proc  (** a callable procedure *)
  | Event  (** an extensible procedure; handlers live in the dispatcher *)
  | Thread_ref of Thread.t  (** a thread object under [/threads] *)

type t

val boot :
  ?policy:Policy.t ->
  ?audit_capacity:int ->
  ?audit_shards:int ->
  ?registry:Clearance.t ->
  db:Principal.Db.t ->
  admin:Principal.individual ->
  hierarchy:Level.hierarchy ->
  universe:Category.universe ->
  unit ->
  t
(** Create a kernel.  [admin] owns the root of the name space and the
    standard directories; every principal can traverse ([List]) them.
    [audit_capacity]/[audit_shards] are passed to
    {!Reference_monitor.create}: the audit pipeline's sharding can be
    pinned for contention studies (bench a8).  [registry] is the deployment's clearance registry;
    supplying it lets the linker issue link-time certificates
    ({!Exsec_analysis.Certificate}) that mint handles. *)

val monitor : t -> Reference_monitor.t

val cache_stats : t -> Decision_cache.stats option
(** Always [None]: the monitor has no decision cache.  Kept only for
    the benchmark harness in [perfbench/], which still reads it (see
    {!Decision_cache}). *)

val resolver : t -> entry Resolver.t
val namespace : t -> entry Namespace.t
val dispatcher : t -> Dispatcher.t
val sched : t -> Sched.t
val db : t -> Principal.Db.t

val batch_principals : t -> (unit -> 'a) -> 'a
(** {!Principal.Db.batch} over the kernel's database: run a bulk
    membership mutation under one deferred generation bump, so every
    derived artifact the kernel holds — compiled ACLs, link-time
    certificates, capability handles — is invalidated exactly once at
    the batch end instead of once per mutation.  The fast paths' pre-read stamps observe the batch as a
    single drift; they fail closed into the checked path once and
    re-mint against the settled state. *)

val hierarchy : t -> Level.hierarchy
val universe : t -> Category.universe

val registry : t -> Clearance.t option
(** The clearance registry the kernel was booted with, if any. *)

val quota : t -> Quota.t
(** The per-principal resource-budget table (see {!Quota}); empty at
    boot, i.e. everyone unlimited until the operator opts principals
    in. [call]/[broadcast] charge the invocation budget, [spawn]
    enforces the live-thread bound, and the linker the loaded-
    extension bound — each refusing with [Service.Quota_exceeded]. *)

val admin_subject : t -> Subject.t
(** The administrator running at the top security class. *)

val subject_for : t -> Principal.individual -> Security_class.t -> Subject.t
(** Convenience constructor for a subject of this kernel's lattice. *)

val default_meta : t -> owner:Principal.individual -> ?klass:Security_class.t ->
  ?callable:bool -> unit -> Meta.t
(** Metadata for a published object: owner holds all modes; everyone
    may [List] (and [Execute] when [callable], the default). [klass]
    defaults to the lattice bottom so any subject may observe it. *)

(** {1 Publishing names} *)

val add_dir :
  t -> subject:Subject.t -> Path.t -> meta:Meta.t ->
  (unit, Service.error) result

val install_proc :
  t -> subject:Subject.t -> Path.t -> meta:Meta.t -> Service.proc ->
  (unit, Service.error) result

val install_event :
  t -> subject:Subject.t -> Path.t -> meta:Meta.t ->
  (unit, Service.error) result
(** Publish an extensible procedure.  Extensions holding [Extend] on
    it may register handlers; callers holding [Execute] may raise
    it. *)

val install_entry :
  t -> subject:Subject.t -> Path.t -> meta:Meta.t -> entry ->
  (unit, Service.error) result
(** Publish an arbitrary payload (used by services to name their own
    objects). *)

val install_iface :
  t -> subject:Subject.t -> mount:Path.t -> meta:(string -> Meta.t) ->
  Iface.t -> (string -> Service.impl) -> (unit, Service.error) result
(** Publish a whole interface: a directory at [mount] (metadata
    [meta ""]) and one procedure leaf per signature (metadata
    [meta name], implementation from the given table). *)

(** {1 Invocation} *)

val call :
  t -> subject:Subject.t -> caller:string -> Path.t -> Value.t list ->
  (Value.t, Service.error) result
(** Invoke the procedure or event at the path, always checked: the
    monitor validates [List] along the path and [Execute] on the
    target, and no certificate is consulted.  Nested calls through a
    procedure's context come back here.  Events run the handler
    selected for the caller's effective class, with the subject's class
    capped by the handler's static class for the duration of the
    handler. *)

val broadcast :
  t -> subject:Subject.t -> caller:string -> Path.t -> Value.t list ->
  ((string * (Value.t, Service.error) result) list, Service.error) result
(** Raise an event to {e every} eligible handler (most specific class
    first) instead of just the best one — SPIN-style event broadcast.
    Returns each handler's owner with its result; an empty list means
    no handler was eligible.  Each handler runs with the subject
    capped by its own static class. *)

val make_ctx : t -> subject:Subject.t -> caller:string -> Service.ctx

(** {1 Capability handles}

    The handle fast path: {!open_handle} pays for one fully checked
    resolution (or reuses a still-valid link-time certificate) and
    returns a dense, unforgeable handle pinning the admitted target
    together with every generation coordinate the decision consulted —
    policy epoch, principal-database generation, and the [Meta]
    generation of each node on the resolution chain.  {!call_handle}
    then dispatches with a bounds-checked slot probe plus a generation
    sweep: no path walk, no hashing, no monitor entry, and zero
    allocation on the granted path.  {e Any} drift — [set_policy],
    group membership, an ACL or class edit anywhere on the chain —
    fails closed into a fully checked, audited re-resolution, which
    re-mints the slot in place when the access is still admitted.  A
    closed handle (or one whose slot was recycled by a later mint)
    never grants: the stamp compare turns it into a deterministic
    denial. *)

val open_handle :
  t -> subject:Subject.t -> caller:string -> Path.t ->
  (Handle.h, Service.error) result
(** Resolve [path] for [Execute] under the full reference-monitor
    check (audited exactly like {!call}) and mint a handle for the
    grant.  Refuses — with the same error {!call} would produce — when
    the access is denied or the target is not callable.  Does not
    charge the invocation quota; each {!call_handle} does. *)

val call_handle :
  t -> Handle.h -> Value.t list -> (Value.t, Service.error) result
(** Invoke through a handle.  Equivalent to {!call} on the handle's
    path under the handle's subject — the differential oracle in the
    test suite holds the two paths to identical results, audit
    verdicts included — but dispatching without monitor work while the
    grant's generation coordinates still hold.  A closed or recycled
    handle answers [Denied] with {!Decision.Not_an_object}. *)

val call_proved :
  t -> Handle.h -> subject:Subject.t -> caller:string -> Path.t -> Value.t list ->
  (Value.t, Service.error) result
(** The certified call through [caller]'s handle [h] for [path] (a
    linker import handle).  While the grant's recorded proof
    ({!note_certificate}) holds — certificate
    {!Exsec_analysis.Certificate.valid}, chain generations, the proof
    naming the grant's node, [subject] covered — the grant's target runs
    under [subject] itself, as a handle hit, whatever the global stamp.
    Otherwise, closed handle included, this is exactly {!call}. *)

val close_handle : t -> Handle.h -> bool
(** Retire the handle; [false] when it was already closed.  Closing is
    idempotent and immediate: no later {!call_handle} through this
    handle can grant, even after the slot is reused. *)

val close_handles_for : t -> string -> int
(** Close every handle minted for the named caller (capability
    revocation on unload); returns the number closed.
    {!forget_loaded} calls this. *)

val handle_stats : t -> Handle.stats

val handle_target : t -> Handle.h -> Path.t option
(** The path a live handle pins, for introspection; [None] once
    closed. *)

val live_handles : t -> (int * string * string * string) list
(** Introspection snapshot of live handles:
    [(slot, path, caller, principal)]. *)

(** {1 Threads} *)

val spawn :
  t -> subject:Subject.t -> name:string -> body:(unit -> Thread.status) ->
  (Thread.t, Service.error) result
(** Create a thread owned by the subject's principal, at the subject's
    effective class, and publish it at [/threads/<id>]. *)

val kill :
  t -> subject:Subject.t -> victim:int -> (unit, Service.error) result
(** Terminate thread [victim].  Requires [Delete] on the thread's
    object — which MAC refuses across categories, containing
    ThreadMurder-style extensions. *)

val run : ?max_quanta:int -> t -> int
(** Drive the scheduler; returns quanta consumed. *)

(** {1 Loaded-extension registry} (maintained by {!Linker}) *)

val note_loaded : t -> Extension.t -> installed:Path.t list -> unit

val forget_loaded : t -> string -> unit
(** Also drops any certificate held for the extension. *)

val find_loaded : t -> string -> (Extension.t * Path.t list) option
val loaded_extensions : t -> string list

(** {1 Certificate lifecycle} (certificates issued by {!Linker})

    Certificates only mint handles: a noted certificate is recorded on
    its extension's import handles ({!call_proved}), and
    {!open_handle} mints on a certificate's strength, while the
    certificate still validates — policy epoch, every consulted
    metadata generation, and the dirty stamp of every group its proof
    depended on unchanged, the calling subject inside the proved
    domain, and the validity horizon (if its profile set one) not yet
    reached at the kernel's certificate epoch.  Stale certificates
    fail closed into the fully checked path;
    {!Reference_monitor.set_policy} (epoch bump) still revokes every
    certificate at once, but membership churn now revokes only the
    certificates whose proofs actually depended on the edited groups
    (see {!Exsec_analysis.Certificate}).

    Counters: [cert.issued] and [cert.delegations] on
    {!note_certificate}, [cert.revoked] on any revocation,
    [cert.expired] on sweep. *)

val note_certificate : t -> Exsec_analysis.Certificate.t -> unit
(** Install the certificate, replacing the extension's earlier one,
    and record its [Always_allow] proofs on the extension's live
    handles for those paths (replaced proofs stop serving at once). *)

val revoke_certificate : t -> string -> unit
(** Drops the extension's certificate {e and closes every handle
    minted on its strength} (certificate-admitted mints, see
    {!open_handle}) — a revoked proof must stop granting immediately,
    not at the next unrelated generation drift.  Handles the extension
    opened through the fully checked path (its import handles) carry
    their own justification and survive, minus the recorded proof. *)

val certificate_of : t -> string -> Exsec_analysis.Certificate.t option

val certificates : t -> Exsec_analysis.Certificate.t list
(** Every certificate currently held, sorted by extension name (the
    [exsecd certs] listing). *)

val cert_epoch : t -> int
(** The kernel's certificate clock.  Validity horizons
    ({!Exsec_analysis.Certificate.t.expires_at}) are measured in ticks
    of this counter; it is independent of the policy epoch, so expiry
    never invalidates unrelated certificates or handles. *)

val advance_cert_epoch : t -> int
(** Tick the certificate clock and eagerly sweep: certificates whose
    horizon has passed are dropped and their certificate-minted
    handles closed ({!sweep_expired_certificates}).  Returns the new
    epoch. *)

val sweep_expired_certificates : t -> int
(** Drop every expired certificate (and close its certificate-minted
    handles) without advancing the clock; returns how many were
    swept.  Purely an eager-reclamation aid: {!certificate_admits}
    already refuses expired certificates on its own. *)

val revoke_by_principal : t -> Principal.individual -> int
(** CRL-style batch revocation: drop exactly the certificates whose
    cover includes the principal (closing their certificate-minted
    handles), with no global epoch bump — certificates that never
    proved anything about the principal are untouched.  Returns how
    many were revoked. *)

val revoke_by_prefix : t -> Path.t -> int
(** Drop exactly the certificates with a proved import under the path
    prefix, same contract as {!revoke_by_principal}. *)

val delegate_certificate :
  t ->
  parent:string ->
  ?cap:Security_class.t ->
  ?profile:Exsec_analysis.Certificate.profile ->
  extension:string ->
  imports:Path.t list ->
  unit ->
  (Exsec_analysis.Certificate.t, string) result
(** Re-certify a sub-extension under the parent extension's
    certificate at the meet of the parent's proved cover and [cap]
    (see {!Exsec_analysis.Certificate.delegate}), and install the
    child certificate in the kernel table.  Fails when the kernel has
    no clearance registry, the parent holds no certificate, the
    parent is uncertified or expired, or the delegation depth exceeds
    the effective profile's cap. *)

val certificate_admits : t -> caller:string -> subject:Subject.t -> Path.t -> bool
(** [true] when the caller's certificate admits this call right now,
    at the kernel's current certificate epoch
    (see {!Exsec_analysis.Certificate.admits}).  A diagnostic; only
    {!open_handle} acts on this answer. *)

val call_graph : ?extra:Extension.t list -> t -> Exsec_analysis.Callgraph.t
(** The live system's call graph: for every loaded extension (plus
    [extra] — e.g. one being linked right now, not yet in the loaded
    table), a transfer edge from each provided procedure's site into
    its code, a monitor-checked call edge from its code to each
    declared or domain-expanded import (resolution chains snapshotted
    from the live name space), and a caller-rebinding transfer edge
    from every event site into each registered handler's code, capped
    by the handler's static class.  Entries are left empty — the
    caller decides who enters where ({!Exsec_analysis.Callgraph.with_entries}). *)

val error_of_denial : Resolver.denial -> Service.error
