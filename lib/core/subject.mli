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

val ceiling : t -> Security_class.t option
(** The current static-class cap, if any. *)

val individual_id : t -> Principal.Db.Snapshot.t -> int
(** [Principal.Db.Snapshot.individual_id snapshot (principal t)],
    remembered for the last snapshot asked about (compared by physical
    identity), so repeated checks against one snapshot skip the
    population-sized name table.  A lookup in another snapshot
    replaces the memo; that is the only allocation.  Safe to call from
    several domains at once. *)

val effective_class : t -> Security_class.t
(** [meet clearance ceiling] when a ceiling is set, else the
    clearance. *)

val with_ceiling : t -> Security_class.t -> t
(** Enter code pinned at the given class; composes (meets) with any
    existing ceiling. *)

val without_ceiling : t -> t
(** Drop the ceiling — only the kernel may do this, when control
    returns from pinned code to the base system. *)

val pp : Format.formatter -> t -> unit
