(** Link-time certificates with a real lifecycle: scoped invalidation,
    profiles, expiry epochs, and delegation chains.

    At link time {!issue} proves every import of an extension over the
    whole registered-principal session space ({!Certify.prove_path})
    and records the exact state the proof consulted.  A later call may
    skip the monitor iff {!admits} — the proof said [Always_allow],
    {e and} none of the consulted state has moved since, {e and} the
    calling subject lies inside the proved domain.

    {2 Invalidation by validation, scoped}

    Invalidation is by validation, not notification (the same scheme
    as {!Exsec_core.Meta.compiled_acl}): nothing tracks certificates;
    they silently stop admitting as soon as state they depended on
    changes.  The dependency set is {e scoped}:

    - the policy epoch ([set_policy] bumps it);
    - the metadata generation of every node on each proof chain
      ([set_acl]/[set_class]/[set_integrity] anywhere on the chain);
    - the target's metadata identity (delete + recreate under the same
      name never inherits a proof);
    - the {!Principal.Db.dirty_stamp} of every group the discretionary
      proof could have consulted — the member-edge closure
      ({!Principal.Db.group_closure}) of each group named by an ACL
      entry on the chain.  Membership churn {e outside} that closure
      revokes nothing: a certificate survives unrelated population
      churn that a whole-database generation compare would treat as
      revocation;
    - the validity horizon, when the certificate's profile sets one.

    Every recorded stamp is read {e before} proving, so a concurrent
    mutation lands a value the certificate was not stamped with and it
    is born stale — it fails closed into the fully checked path. *)

open Exsec_core

type import_proof = {
  import : Path.t;
  verdict : Verdict.t;
  target_id : int;  (** {!Meta.t} identity of the resolved target *)
  chain : (Meta.t * int) list;
      (** every node consulted on the path, root first, with the
          metadata generation read {e before} the proof *)
}

type cover = {
  principal : Principal.individual;
  e_max : Security_class.t;
      (** top of the proved effective-class range: the registered
          clearance met with the issuing ceiling (the extension's
          static class, or the delegation meet) *)
  integrity : Security_class.t option;
      (** the registered integrity label the proof evaluated *)
}

type profile = {
  profile_name : string;
  allowed_modes : Access_mode.Set.t;
      (** modes this class of extension may be certified for; a
          certificate proves [Execute] for its imports, so a profile
          without [Execute] certifies nothing *)
  allowed_prefixes : Path.t list;
      (** certified imports must fall under one of these prefixes;
          [[]] means any path *)
  max_depth : int;
      (** delegation chains under this profile may not exceed this
          depth *)
  max_validity : int option;
      (** validity horizon in kernel certificate epochs counted from
          issue time; [None] = never expires *)
}
(** A named class of certificate: what a class of extension may be
    certified for, enforced at {!issue} time.  An import outside the
    profile's modes or prefixes proves [Depends] — it is never
    certified, so the runtime keeps checking it (fail closed, not
    fail open). *)

val make_profile :
  name:string ->
  ?modes:Access_mode.t list ->
  ?prefixes:Path.t list ->
  ?max_depth:int ->
  ?validity:int ->
  unit ->
  profile
(** [modes] defaults to [[List; Execute]] (what a chain proof needs),
    [prefixes] to any path, [max_depth] to [1], [validity] to never
    expiring. *)

val profile_admits_path : profile -> Path.t -> bool
(** Whether a path falls under one of the profile's prefixes
    (vacuously true for an unrestricted profile). *)

type delegation = {
  delegated_by : string;  (** the parent certificate's extension *)
  depth : int;  (** 1 for a first delegation, parent depth + 1 after *)
  cap : Security_class.t option;
      (** the static-class cap the delegation was requested at *)
}

type dep = {
  dep_group : Principal.group;
  dep_stamp : int;  (** {!Principal.Db.dirty_stamp} at issue time *)
}

type t = {
  extension : string;
  epoch : int;  (** {!Reference_monitor.policy_epoch} at issue time *)
  db_generation : int;  (** {!Principal.Db.generation} at issue time *)
  issued_at : int;  (** kernel certificate epoch at issue time *)
  expires_at : int option;
      (** certificate epoch at which {!admits} stops accepting
          ([now >= expires_at]); [None] = never *)
  profile : profile option;
  delegation : delegation option;  (** [None] for a root certificate *)
  covers : cover list;
  proofs : import_proof list;
  deps : dep list;
      (** scoped principal dependency set, sorted by group name *)
}

val issue :
  monitor:Reference_monitor.t ->
  registry:Clearance.t ->
  namespace:'a Namespace.t ->
  ?static_class:Security_class.t ->
  ?profile:profile ->
  ?now:int ->
  extension:string ->
  imports:Path.t list ->
  unit ->
  t
(** Prove every import for every registered principal.  Imports whose
    paths do not resolve get a [Depends] proof (they never admit), as
    do imports outside the profile's modes or prefixes.  An empty
    clearance registry proves [Depends] for everything: a certificate
    with zero covers asserts nothing about anyone and must never
    certify (folding [Verdict.all] over zero covers would otherwise
    yield a vacuous [Always_allow]).  [now] is the kernel certificate
    epoch (default [0]) the profile's validity horizon counts from.
    The epoch and generations are read {e before} proving, so a
    concurrent mutation always leaves the certificate unable to
    validate rather than wrongly valid. *)

val delegate :
  monitor:Reference_monitor.t ->
  registry:Clearance.t ->
  namespace:'a Namespace.t ->
  parent:t ->
  ?cap:Security_class.t ->
  ?profile:profile ->
  ?now:int ->
  extension:string ->
  imports:Path.t list ->
  unit ->
  (t, string) result
(** Re-certify a sub-extension under a parent certificate: each
    principal's ceiling is the meet of the parent's proved [e_max] for
    that principal and [cap], so a delegation can only narrow
    authority, never mint any (the paper's static-class pinning made
    transitive).  Principals the parent does not cover are dropped
    from the child's covers.  The child inherits the parent's profile
    unless [profile] overrides it, records
    [delegated_by]/[depth]/[cap], and expires no later than the
    parent.  [Error] when the parent is not fully certified or has
    expired at [now], or when the chain depth would exceed the
    effective profile's [max_depth]. *)

val fully_certified : t -> bool
(** Every import proved [Always_allow], at least one import, and at
    least one cover — the condition under which the linker stamps the
    extension as certified. *)

val expired : t -> now:int -> bool
(** Whether the validity horizon has passed at certificate epoch
    [now].  Certificates without a horizon never expire. *)

val verdict_for : t -> Path.t -> Verdict.t option

val covered : t -> Subject.t -> bool
(** Whether the proof applies to this subject: its principal is
    covered, its effective class lies under the proved range's top,
    and its integrity label is the proved one. *)

val valid : t -> monitor:Reference_monitor.t -> now:int -> bool
(** The part of {!admits} that needs no path: policy epoch, expiry at
    certificate epoch [now], and every recorded group dirty stamp. *)

val proof_holds : import_proof -> bool
(** Proved [Always_allow], every chain node still at its proved
    generation. *)

val admits :
  t ->
  monitor:Reference_monitor.t ->
  namespace:'a Namespace.t ->
  subject:Subject.t ->
  ?now:int ->
  Path.t ->
  bool
(** [true] iff the certified fast path may serve this call: the import
    was proved [Always_allow]; the policy epoch, every chain node
    generation, and every recorded group dirty stamp are at their
    issue-time values (a stamp {e above} the issue-time database
    generation marks a born-stale certificate, which never admits);
    the certificate has not expired at [now]; the path still resolves
    to the proved object identity; and [subject] is covered.  [now]
    defaults to [max_int], so a caller that does not track certificate
    epochs fails closed on every expiring certificate.  (The trusted
    bit is irrelevant: certificates cover only read-like modes, which
    the trusted exemption does not touch.) *)

val admitted :
  t ->
  monitor:Reference_monitor.t ->
  namespace:'a Namespace.t ->
  subject:Subject.t ->
  ?now:int ->
  Path.t ->
  'a Namespace.node option
(** {!admits}, returning the node whose identity the proof was just
    validated against.  A caller that dispatches on a certificate must
    invoke this node: a second lookup of the path could return a node
    re-added there in between, which no check covered. *)

val pp : Format.formatter -> t -> unit

val profile_to_json : profile -> string
(** The profile as a JSON object
    [{"name","modes","prefixes","max_depth","max_validity"}]; schema
    pinned in docs/ANALYZE.md. *)
