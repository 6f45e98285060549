(** Subjects: threads of control acting on behalf of a principal
    (paper, section 2.2).

    A subject runs at the security class of its principal (the
    {e clearance}).  When the thread enters code that carries a
    statically assigned class — an extension pinned to a class so it
    cannot launder its caller's authority — that class becomes a
    {e ceiling}, and the subject's effective class is the lattice meet
    of clearance and ceiling.  Ceilings nest: entering further pinned
    code can only lower the effective class. *)

type t

val make :
  ?ceiling:Security_class.t -> ?trusted:bool -> ?integrity:Security_class.t ->
  Principal.individual -> Security_class.t -> t
(** [make principal clearance] is a fresh subject.  [trusted] (default
    [false]) marks a Bell-LaPadula {e trusted subject}: part of the
    trusted computing base and exempt from the mandatory [*]-property
    (it may write down), though still subject to discretionary
    control.  Only the kernel's own administrative threads should be
    trusted. *)

val is_trusted : t -> bool

val integrity : t -> Security_class.t option
(** The subject's Biba integrity class, when the deployment labels
    integrity; unlabelled subjects are exempt from integrity rules. *)

val principal : t -> Principal.individual
val clearance : t -> Security_class.t

val individual_id : t -> Principal.Db.Snapshot.t -> int
(** [Principal.Db.Snapshot.individual_id snapshot (principal t)]: the
    principal's fixed id, or [-1] while it is unregistered.  An id,
    once found, never changes, so it is remembered and every later
    call skips the population-sized name table, across membership
    edits and registrations alike; a snapshot older than the
    registration reads the id as unregistered.  Only an unregistered
    principal is looked up again.  A subject belongs to one database.
    Never allocates; safe to call from several domains at once. *)

val membership_unmoved :
  t -> Principal.Db.t -> generation:int -> Principal.Db.Snapshot.row -> bool
(** The membership test that capability-handle grants and link-time
    certificates share, for a [row] the subject had in a snapshot of
    [generation]: the published snapshot, loaded once for both tests,
    is still of [generation], or it gives the subject that very row
    ([==]; a publication replaces exactly the rows that changed).
    Never allocates. *)

val effective_class : t -> Security_class.t
(** The clearance met with every ceiling entered ({!make}'s
    [ceiling], then each {!with_ceiling}) since the last
    {!without_ceiling}; the clearance when there is none.  The subject
    keeps it, computed when a ceiling is set, so reading it allocates
    nothing: a subject under a ceiling decides without allocating,
    like one without. *)

val with_ceiling : t -> Security_class.t -> t
(** Enter code pinned at the given class; composes (meets) with any
    existing ceiling. *)

val without_ceiling : t -> t
(** Drop the ceiling — only the kernel may do this, when control
    returns from pinned code to the base system. *)

val pp : Format.formatter -> t -> unit
