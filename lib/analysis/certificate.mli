(** Link-time certificates with a real lifecycle: per-subject
    revocation, profiles, expiry epochs, and delegation chains.

    At link time {!issue} proves every import of an extension over the
    whole registered-principal session space ({!Certify.prove_chain},
    once per import and cover) and records the state the proof
    consulted.  A later call may skip
    the monitor iff {!admits} — the proof said [Always_allow], {e and}
    none of the consulted state has moved since, {e and} the calling
    subject lies inside the proved domain.

    {2 Invalidation by validation: the handles' row rule}

    Invalidation is by validation, not notification: nothing tracks
    certificates; they silently stop admitting as soon as state they
    depended on changes.  A certificate keeps what a capability-handle
    grant keeps, read before proving, and compares each with [==]:

    - the policy its proofs read (every [set_policy] publishes a new
      value);
    - per proof, the value each node on the chain held when the proof
      read it: an edit anywhere on the chain publishes a new value, a
      removal retires the node, and {!admits} walks the path again, so
      a target deleted and recreated under the same name never
      inherits a proof;
    - per covered principal, its row in the snapshot read before
      proving.  Every proof reads membership from that one snapshot,
      through the monitor's own discretionary half ({!Certify.prove}), and
      a proof for one principal reads only that principal's row, so a
      subject stays admitted while the database generation holds or
      its current row is the kept one ({!Subject.membership_unmoved}):
      an edit revokes exactly for the principals whose own row it
      moves;
    - the validity horizon, when the certificate's profile sets one.

    A certificate issued inside a batch, or while an edit lands, proves
    over the snapshot published before it, as the monitor decides, and
    admits exactly the covers whose row the batch or edit leaves in
    place. *)

open Exsec_core

type import_proof = {
  import : Path.t;
  verdict : Verdict.t;
  chain : Meta.t list;
      (** the value of every node consulted on the path, root first, as
          the proof read it; [[]] when the path did not resolve *)
}

type cover = {
  principal : Principal.individual;
  id : int;
      (** the principal's fixed database id; [-1] (admits nobody) when
          it was not registered there *)
  row : Principal.Db.Snapshot.row;
      (** its row in the snapshot the proofs read *)
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

type t = {
  extension : string;
  policy : Policy.t;  (** the published policy the proofs read *)
  db_generation : int;
      (** the generation of the snapshot the proofs read *)
  issued_at : int;  (** kernel certificate epoch at issue time *)
  expires_at : int option;
      (** certificate epoch at which {!admits} stops accepting
          ([now >= expires_at]); [None] = never *)
  profile : profile option;
  delegation : delegation option;  (** [None] for a root certificate *)
  covers : cover array;  (** sorted by [id] *)
  proofs : import_proof list;
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
    certify (a fold of {!Verdict.both} from [Always_allow] over zero
    covers would otherwise yield a vacuous [Always_allow]).  [now] is the kernel certificate
    epoch (default [0]) the profile's validity horizon counts from.
    The policy and the snapshot are read once, before proving, each
    proof keeps the values it read, and every proof reads membership
    from that snapshot, so a concurrent mutation leaves the certificate
    unable to validate for the subjects it moved, never wrongly
    valid.  The registry and the
    name table are read once per cover, when the covers are built: each
    proof runs over its cover's own {!Certify.range}, whose top subject
    gives the cover its [id], [e_max] and integrity label, and equals {!Certify.prove_path} for the cover's principal at the
    issuing ceiling. *)

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

val admits_subject : t -> db:Principal.Db.t -> Subject.t -> bool
(** The per-subject half of {!admits}: a cover, found by binary search
    on the subject's id ({!Subject.individual_id}), whose proved top
    dominates the subject's effective class and whose integrity label
    is the subject's, and the subject's membership unmoved against the
    cover's row ({!Subject.membership_unmoved}).  Allocates nothing
    once the snapshot is current, for a subject with no ceiling. *)

val valid : t -> monitor:Reference_monitor.t -> now:int -> bool
(** The part of {!admits} that needs neither path nor subject: the
    monitor still holds the policy the proofs read, and expiry at
    certificate epoch [now]. *)

val proof_holds : import_proof -> Meta.t list -> bool
(** Proved [Always_allow] over exactly these values, root first
    ([==] each): a chain whose nodes hold them is one the proof
    covers. *)

val admits :
  t ->
  monitor:Reference_monitor.t ->
  namespace:'a Namespace.t ->
  subject:Subject.t ->
  ?now:int ->
  Path.t ->
  bool
(** [true] iff the certified fast path may serve this call: the
    certificate is {!valid} at [now]; the path still resolves, through
    nodes that hold the values its proof read ({!proof_holds}); and
    {!admits_subject} holds.  [now]
    defaults to [max_int], so a caller that does not track certificate
    epochs fails closed on every expiring certificate.  (The trusted
    bit is irrelevant: certificates cover only read-like modes, which
    the trusted exemption does not touch.) *)

val pp : Format.formatter -> t -> unit

val profile_to_json : profile -> string
(** The profile as a JSON object
    [{"name","modes","prefixes","max_depth","max_validity"}]; schema
    pinned in docs/ANALYZE.md. *)
