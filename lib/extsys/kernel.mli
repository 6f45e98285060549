(** The base system: one universal name space and one reference
    monitor — the "central facility to provide naming and protection
    services for the entire system" (paper, section 3).

    The kernel owns the tree under which everything is named:

    - [/svc]      system service interfaces and their procedures
    - [/ext]      extension-provided procedures, one directory each
    - [/threads]  thread objects (subjects that are also objects)

    Service procedures are leaves; calling one requires [Execute] on
    the leaf (and [List] along the path).  Extensible procedures are
    {e events}: leaves whose behaviour is supplied by handlers, held in
    the leaf's own handler set ({!Dispatcher}) and selected by the
    caller's security class.  Handlers live and die with their node:
    removing the event drops them, and a call that resolves a new node
    at the same path sees only the new node's set. *)

open Exsec_core

type entry = ..
(** The payload of name-space leaves.  Extensible so services (file
    systems, logs) can publish their own object kinds in the same
    tree. *)

type entry +=
  | Proc of Service.proc  (** a callable procedure *)
  | Event of Dispatcher.t
      (** an extensible procedure and its handler set; the linker
          registers into the set of the node its [Extend] check
          admitted *)
  | Thread_ref of Thread.t  (** a thread object under [/threads] *)

type t

val boot :
  ?policy:Policy.t ->
  ?audit_capacity:int ->
  ?registry:Clearance.t ->
  db:Principal.Db.t ->
  admin:Principal.individual ->
  hierarchy:Level.hierarchy ->
  universe:Category.universe ->
  unit ->
  t
(** Create a kernel.  [admin] owns the root of the name space and the
    standard directories; every principal can traverse ([List]) them.
    [audit_capacity] is passed to {!Reference_monitor.create}.
    [registry] is the deployment's clearance registry;
    supplying it lets the linker issue link-time certificates
    ({!Exsec_analysis.Certificate}), whose proofs serve
    {!call_proved}. *)

val monitor : t -> Reference_monitor.t

val cache_stats : t -> Decision_cache.stats option
(** Always [None]: the monitor has no decision cache.  Kept only for
    the benchmark harness in [perfbench/], which still reads it (see
    {!Decision_cache}). *)

val resolver : t -> entry Resolver.t
val namespace : t -> entry Namespace.t
val sched : t -> Sched.t
val db : t -> Principal.Db.t

val batch_principals : t -> (unit -> 'a) -> 'a
(** {!Principal.Db.batch} over the kernel's database: run a bulk
    membership mutation under one deferred generation bump, so the
    fast paths see the whole batch as one change at the batch end
    instead of one per mutation.  A certificate stops serving
    {!call_proved} to each covered subject the batch moved, and keeps
    serving the others; a handle whose subject the batch moved fails
    closed into the checked path once and re-mints against the
    settled state.  Registering principals moves
    no existing subject, so a batch that only registers newcomers
    (into groups no handle's subject belongs to) leaves every handle
    fresh. *)

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
(** Publish an extensible procedure with an empty handler set.
    Extensions holding [Extend] on it may register handlers; callers
    holding [Execute] may raise it. *)

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
    handler.

    Observability costs one test ({!Exsec_obs.Trace.observing}): off,
    the call is the quota charge, the checked resolution and the
    dispatch alone; on, the same body runs inside the [kernel.calls],
    [kernel.call_errors] and [kernel.call_ns] metrics and a
    [kernel.call] span, which it hands down to the resolver and the
    monitor.  {!call_handle} and {!call_proved} make the same one test
    for their [handle.*] metrics. *)

val broadcast :
  t -> subject:Subject.t -> caller:string -> Path.t -> Value.t list ->
  ((string * (Value.t, Service.error) result) list, Service.error) result
(** Raise an event to {e every} eligible handler, in the set's order
    ({!Dispatcher}; the handler {!call} would run comes first), instead
    of just the best one — SPIN-style event broadcast.  Returns each
    handler's owner with its result; an empty list means no handler
    was eligible.  Each handler runs with the subject capped by its
    own static class. *)

val make_ctx : t -> subject:Subject.t -> caller:string -> Service.ctx

(** {1 Capability handles}

    The handle fast path: {!open_handle} pays for one fully checked
    resolution and returns a dense, unforgeable handle pinning the
    admitted target together with what the decision read: the
    policy, the nodes of the resolution chain with the value each held
    ({!Namespace.meta}), and the subject's membership, recorded both
    as the principal-database generation and as the subject's own
    snapshot row ({!Principal.Db.Snapshot.row}).  All of them are read
    before the decision runs, and the decision reads exactly them
    ({!Resolver.resolve_chain}).  {!call_handle} then dispatches with a
    bounds-checked slot probe plus compares: no path walk, no hashing,
    no monitor entry, and zero allocation on the granted path.

    {b Freshness.}  A grant is fresh while the monitor still holds the
    kept policy and every chain node the kept value (both [==]), and
    either the database generation is unchanged or the current
    snapshot gives the subject the recorded row ([==]).  A value is
    never edited in place: an edit publishes a new one and a removal
    retires the node with a copy, so the chain test is one node load
    and one compare per node.  With no membership edit the membership
    half is one compare; after an edit it costs a published-snapshot
    probe and one row load, and still allocates nothing.  A
    [set_policy], an ACL or class edit anywhere on the chain, a removal
    of any chain node, or a membership edit that moves the subject
    (directly or through a nested group, a newly registered one
    included) fails closed into a fully checked, audited
    re-resolution, which re-mints the slot in place when the access is
    still admitted.  A membership
    edit or a registration that does not move the subject revokes
    nothing.  A closed handle (or one whose slot was recycled
    by a later mint) never grants: the slot stamp turns it into a
    deterministic denial.

    {b Why the row test is sound.}
    - Rows are immutable, and a publication replaces exactly the rows
      whose membership flipped, each with a fresh array, sharing every
      other.  So [==] implies equal content (the shared empty row is
      one atom, equal content too).
    - The DAC verdicts along the chain read only the subject's id,
      which never changes, and its row.  Each compiled ACL belongs to
      the kept value whose ACL it compiles ({!Meta.compiled_in}), and
      its group tier probes only the subject's row.  A registration can change a
      verdict only by putting the subject in a group (its row moves):
      an ACL-named individual registered since compiling is matched by
      name as before, and a group the form compiled away holds the
      subject only if the subject's row now lists it.  MAC and Biba
      read the chain's classes, which the kept values hold, and the
      subject's, which never change.
    - The recorded row is the one the decision read: the decision runs
      under the snapshot read before it ({!Resolver.resolve_in}), and
      the grant keeps the subject's row from that snapshot.  This
      matters because rows come back physically (every row that
      empties is the one shared empty array): a grant that kept an
      empty row read before the subject joined, after a decision that
      found it a member, would test fresh again once it left.

    Every handle is a monitor decision: no certificate mints one.
    Certificates keep the same coordinates per covered principal (its
    row in the snapshot its proofs read) and validate with the
    same membership test, {!Subject.membership_unmoved}; they govern
    only the proved path, {!call_proved}. *)

val open_handle :
  t -> subject:Subject.t -> caller:string -> Path.t ->
  (Handle.h, Service.error) result
(** Resolve [path] for [Execute] under the full reference-monitor
    check (audited exactly like {!call}, whatever certificate [caller]
    holds) and mint a handle for the grant.  Refuses — with the same error {!call} would produce — when
    the access is denied or the target is not callable.  Does not
    charge the invocation quota; each {!call_handle} does. *)

val call_handle :
  t -> Handle.h -> Value.t list -> (Value.t, Service.error) result
(** Invoke through a handle.  Equivalent to {!call} on the handle's
    path under the handle's subject — the differential oracle in the
    test suite holds the two paths to identical results, audit
    verdicts included — but dispatching without monitor work while the
    grant is fresh (see above).  A stale grant is re-checked, audited,
    and re-minted in place; a membership edit that leaves the
    subject's row alone does not make it stale.  A closed or recycled
    handle answers [Denied] with {!Decision.Not_an_object}. *)

val call_proved :
  t -> Handle.h -> subject:Subject.t -> caller:string -> Path.t -> Value.t list ->
  (Value.t, Service.error) result
(** The certified call through [caller]'s handle [h] for [path] (a
    linker import handle).  While the grant's recorded proof
    ({!note_certificate}) holds — certificate
    {!Exsec_analysis.Certificate.valid} (its policy still in force,
    expiry), the grant's chain nodes still holding the values the
    proof was over, and
    {!Exsec_analysis.Certificate.admits_subject} for [subject] — the
    grant's target runs under [subject] itself, as a handle hit,
    whatever the grant's own subject and membership coordinates.  The
    probe's cost does not grow with the proof's groups.
    Otherwise, closed handle included, this is exactly {!call}. *)

val close_handle : t -> Handle.h -> bool
(** Retire the handle; [false] when it was already closed.  Closing is
    idempotent and immediate: no later {!call_handle} through this
    handle can grant, even after the slot is reused. *)

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
    effective class, and publish it at {!thread_path}. *)

val thread_path : int -> Path.t
(** [/threads/t<id>]: the node of thread [id], which holds the
    thread's metadata. *)

val kill :
  t -> subject:Subject.t -> victim:int -> (unit, Service.error) result
(** Terminate thread [victim].  Requires [Delete] on the thread's
    object — which MAC refuses across categories, containing
    ThreadMurder-style extensions. *)

val run : ?max_quanta:int -> t -> int
(** Drive the scheduler; returns quanta consumed. *)

(** {1 Loaded-extension registry} (maintained by {!Linker}) *)

val note_loaded :
  t -> Extension.t -> installed:Path.t list -> handler_sets:Dispatcher.t list ->
  imports:Handle.h list -> chain:Handle.h list -> unit
(** [handler_sets] are the event sets the extension registered into;
    unloading unregisters from exactly these.  [imports] and [chain]
    are the import and chain handles its link minted: the import
    handles carry its certificate's proofs ({!note_certificate}), and
    unloading closes exactly these handles. *)

val forget_loaded : t -> string -> unit
(** Closes the extension's import and chain handles (capability
    revocation: a closed handle answers {!Decision.Not_an_object}) and
    drops any certificate held for it.  Costs what the extension
    holds, not what the table holds. *)

val find_loaded : t -> string -> (Extension.t * Path.t list * Dispatcher.t list) option
val loaded_extensions : t -> string list

val loaded_by : t -> Principal.individual -> int
(** How many loaded extensions the principal authored — the count the
    extension quota charges.  Kept by {!note_loaded} and
    {!forget_loaded}, so reading it walks nothing. *)

(** {1 Certificate lifecycle} (certificates issued by {!Linker})

    A certificate's only runtime effect is the proof it records on its
    extension's import handles ({!call_proved}).  The proof serves a
    covered subject while the certificate still validates — the policy
    and every consulted node value it kept still in force, the
    validity horizon (if its profile set one) not yet reached at the
    kernel's certificate epoch, and the subject's own membership
    unmoved: the database generation unchanged, or the subject's row
    the one kept at issue.  A stale certificate fails closed into the
    fully checked path; {!Reference_monitor.set_policy} (a new policy
    value) revokes every certificate at once, but a membership edit revokes
    only for the subjects whose own row it moves (see
    {!Exsec_analysis.Certificate}).  No certificate mints or
    closes a handle: dropping one (revocation, expiry, unload) strips
    its proofs, and every handle keeps serving under its own monitor
    decision.

    Counters: [cert.issued] and [cert.delegations] on
    {!note_certificate}, [cert.revoked] on any revocation and on a
    {!note_certificate} that replaces a held certificate,
    [cert.expired] on sweep.  So [cert.issued] is always [cert.expired
    + cert.revoked] plus the certificates held. *)

val note_certificate : t -> Exsec_analysis.Certificate.t -> unit
(** Install the certificate, replacing the extension's earlier one
    (which counts as revoked), and record its [Always_allow] proofs on
    the loaded extension's import handles for those paths (replaced
    proofs stop serving at once).  An extension that is not loaded holds no import handle, so
    its certificate records nothing yet.  Touches only the
    extension's own import handles, never the rest of the table. *)

val revoke_certificate : t -> string -> unit
(** Drops the extension's certificate and strips its proofs from the
    extension's import handles (only those), so the revoked proof
    stops serving
    {!call_proved} at once: a covered subject's next call is the
    checked, audited {!call}.  The handles themselves (import and
    chain handles) were minted by monitor decisions and keep serving
    {!call_handle} under their own freshness rule. *)

val certificate_of : t -> string -> Exsec_analysis.Certificate.t option

val certificates : t -> Exsec_analysis.Certificate.t list
(** Every certificate currently held, sorted by extension name (the
    [exsecd certs] listing). *)

val cert_epoch : t -> int
(** The kernel's certificate clock.  Validity horizons
    ({!Exsec_analysis.Certificate.t.expires_at}) are measured in ticks
    of this counter; it is independent of the policy, so expiry
    never invalidates unrelated certificates or handles. *)

val advance_cert_epoch : t -> int
(** Tick the certificate clock and eagerly sweep: certificates whose
    horizon has passed are dropped and their proofs stripped, as by
    {!revoke_certificate}.  Returns the new epoch.  The sweep only
    reclaims: an expired certificate's proof already stops serving at
    the horizon. *)

val revoke_by_principal : t -> Principal.individual -> int
(** CRL-style batch revocation: drop exactly the certificates whose
    cover includes the principal (stripping their proofs, as
    {!revoke_certificate}), with no global epoch bump — certificates that never
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
    (see {!Exsec_analysis.Certificate.admits}).  A diagnostic: no call
    path consults it. *)

val call_graph : t -> Extension.t -> Exsec_analysis.Callgraph.t
(** The call graph the chain prover needs to link [extension] (not yet
    in the loaded table): the part of the live system its code can
    reach, and no more.  Starting from [extension], breadth-first, each
    reached extension contributes a transfer edge from each provided
    procedure's site into its code and a monitor-checked call edge from
    its code to each declared or domain-expanded import (resolution
    chains snapshotted from the live name space); an import
    [/ext/<name>/…] reaches extension [<name>] when it is loaded.  So
    the graph, and a link's cost, grows with what the new extension
    reaches, not with how many extensions are loaded.  Event dispatch
    has no edge: a handler runs under its owner's name, outside any
    certificate the caller holds, so the chain prover never crosses
    it.  Entries are left empty — the caller decides who enters where
    ({!Exsec_analysis.Callgraph.with_entries}). *)

val error_of_denial : Resolver.denial -> Service.error
