(** The link-time prover: lift the reference monitor's per-session
    decision to a {!Verdict.t} over a principal's whole session space.
    It has no rules of its own: it runs the monitor's two halves
    ({!Reference_monitor.discretionary} and
    {!Reference_monitor.mandatory}) at the corners of the session
    range, so a change to the monitor's rules moves its verdicts too.

    The range is the lattice interval from bottom to
    [e_max = meet clearance static_class], with the registered trusted
    bit and integrity label: any class in it is reachable by logging in
    at that class (it is below the clearance) and entering the pinned
    code, and no session can exceed the meet.  Soundness rests on the
    lattice monotonicity of each rule in the effective class:

    - the discretionary half depends only on the principal's identity
      and group memberships, never on the session class, so its answer
      at the top is its answer everywhere;
    - the mandatory read rule ([effective dominates object]) is
      monotone {e increasing}, and the write rule ([object dominates
      effective]) monotone {e decreasing}, so each holds for every
      session iff it holds at both corners, and fails for every session
      iff it fails at both;
    - the integrity layer and the trusted exemption read the
      {e registered} labels and trusted bit, which do not vary with the
      session class.

    Strict overwrite is the one rule that is not monotone: [Write] and
    [Delete] are granted at the object's class alone.  So a node is
    [Always_deny] when the discretionary half denies; otherwise
    [Always_allow] when the mandatory half grants at both corners,
    [Depends] when at one, and when at neither, [Depends] iff it grants
    at [meet e_max klass], the class strict overwrite needs. *)

open Exsec_core

type range = private {
  top : Subject.t;  (** effective class [e_max], registered labels *)
  bottom : Subject.t;  (** [top] under a bottom ceiling *)
}

val range :
  ?static_class:Security_class.t -> detail:Clearance.detail -> Principal.individual -> range
(** The session range of the principal registered with [detail], capped
    by [static_class] as an extension ceiling would cap it. *)

val prove :
  snapshot:Principal.Db.Snapshot.t ->
  registry:Clearance.t ->
  policy:Policy.t ->
  ?static_class:Security_class.t ->
  principal:Principal.individual ->
  meta:Meta.t ->
  mode:Access_mode.t ->
  unit ->
  Verdict.t
(** The verdict for [principal] requesting [mode] on the object
    described by [meta], quantified over every session the clearance
    registry would mint for it ({!Verdict}): {!prove_path} on the
    one-node chain [[meta]].  [static_class] caps the range as an
    extension ceiling would.  Unregistered principals are outside the
    proved domain and get [Depends].

    The proof reads [meta]'s fields and the membership [snapshot]
    holds, as the monitor does.  A caller that keeps the result keeps
    [meta] itself, the value the proof read, and [snapshot]'s row and
    generation (see {!Certificate}). *)

val prove_chain :
  snapshot:Principal.Db.Snapshot.t ->
  policy:Policy.t ->
  range ->
  chain:Meta.t list ->
  mode:Access_mode.t ->
  Verdict.t
(** The verdict for a checked path traversal ending in [mode], over a
    range the caller built once: [List] on every element of [chain]
    but the last (the resolver checks search permission on each node
    strictly above the target, root included) and [mode] on the last,
    each node decided at the range's corners, folded with
    {!Verdict.both}.  [Always_allow] on the empty chain.  Reads neither
    the registry nor the name table, so a caller proving many chains
    for one principal ({!Certificate.issue}, per cover) pays those
    lookups once. *)

val prove_path :
  snapshot:Principal.Db.Snapshot.t ->
  registry:Clearance.t ->
  policy:Policy.t ->
  ?static_class:Security_class.t ->
  principal:Principal.individual ->
  chain:Meta.t list ->
  mode:Access_mode.t ->
  unit ->
  Verdict.t
(** {!prove_chain} over the principal's {!range}, looked up once:
    equal to a fold of {!Verdict.both} from [Always_allow] over
    {!prove} taken per node, [List] on each interior node and [mode]
    on the last.  [Always_allow] on the empty chain; [Depends] on any
    other chain for an unregistered principal. *)
