(** The link-time prover: lift the reference monitor's per-session
    decision to a {!Verdict.t} over a principal's whole session space.

    Soundness rests on the lattice monotonicity of each policy layer:

    - the discretionary check depends only on the principal's identity
      and group memberships, never on the session class, so its answer
      is already a constant over the session space.  It is the
      monitor's own check: the object's compiled ACL
      ({!Meta.compiled_in}) run by {!Acl_compiled.check} with
      membership read from the snapshot the caller hands in;
    - the mandatory read rule ([effective dominates object]) is
      monotone {e increasing} in the effective class, so it holds for
      every achievable session iff it holds at the lattice bottom —
      i.e. iff the object's class is itself bottom — and fails for
      every session iff it fails at the top of the achievable range;
    - the mandatory write rule ([object dominates effective]) is
      monotone {e decreasing}, so it always holds at bottom (never
      [Always_deny] on its own) and holds everywhere iff it holds at
      the top of the range; the strict-overwrite refinement (equal
      classes for [Write]/[Delete]) pins the granting session to
      exactly the object's class;
    - the integrity layer compares the {e registered} integrity labels
      of subject and object, which do not vary with the session class.

    The achievable range of effective classes is the full lattice
    interval from bottom to [meet clearance static_class]: any class
    in it is reachable by logging in at that class (it is below the
    clearance) and entering the pinned code, and no session can exceed
    the meet.  Evaluating each layer at the two endpoints therefore
    decides the whole space. *)

open Exsec_core

val e_max :
  ?static_class:Security_class.t -> Security_class.t -> Security_class.t
(** [e_max ?static_class clearance] is the top of the achievable
    effective-class range: [meet clearance static_class], or the
    clearance when the extension carries no static class. *)

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
    registry would mint for it ({!Verdict}).  [static_class] caps the
    range as an extension ceiling would.  Unregistered principals are
    outside the proved domain and get [Depends].

    The proof mirrors {!Reference_monitor.decide} layer by layer —
    including the trusted-subject exemptions and the per-layer policy
    switches — against the {e current} metadata fields and the
    membership [snapshot] holds, which the DAC layer reads exactly as
    the monitor does.  A caller that keeps the result reads
    [Meta.generation] {e before} calling and keeps [snapshot]'s row
    and generation (see {!Certificate}). *)

val prove_chain :
  snapshot:Principal.Db.Snapshot.t ->
  policy:Policy.t ->
  detail:Clearance.detail ->
  id:int ->
  principal:Principal.individual ->
  top:Security_class.t ->
  chain:Meta.t list ->
  mode:Access_mode.t ->
  Verdict.t
(** The verdict for a checked path traversal ending in [mode], for a
    principal whose lookups the caller has made once: [detail] is its
    registry record, [id] its database id
    ([Principal.Db.Snapshot.individual_id snapshot principal]) and
    [top] its {!e_max}.  [List] on every element of [chain] but the
    last (the resolver checks search permission on each node strictly
    above the target, root included) and [mode] on the last, each node
    decided by the step {!prove} runs, folded with {!Verdict.both}.
    [Always_allow] on the empty chain.  Reads neither the registry nor
    the name table, so a caller proving many chains for one principal
    ({!Certificate.issue}, per cover) pays those lookups once. *)

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
(** {!prove_chain} after looking the principal up once: equal to a
    fold of {!Verdict.both} from [Always_allow] over {!prove} taken per
    node, [List] on each interior node and [mode] on the last.  [Always_allow] on the empty chain;
    [Depends] on any other chain for an unregistered principal. *)
