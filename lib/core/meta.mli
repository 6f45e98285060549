(** Security metadata attached to every protected object.

    Each named object — a file, a directory, a service procedure, an
    interface, a domain — carries an owner, an access control list and
    a security class.  The reference monitor consults exactly this
    record; nothing else about an object matters to protection. *)

type compiled_slot = private {
  compiled : Acl_compiled.t;
  acl_generation : int;
}
(** A compiled form of the object's ACL ({!Acl_compiled}) together
    with the metadata generation its ACL was read under; managed by
    {!compiled_acl}, opaque to everyone else. *)

type t = private {
  id : int;  (** unique object identity, assigned at creation; names
                 can be reused (delete + recreate), identities never
                 are — flow analysis depends on this.  Identities are
                 drawn from a process-wide atomic counter, so objects
                 may be created from any domain *)
  mutable owner : Principal.individual;
  mutable acl : Acl.t;
  mutable klass : Security_class.t;  (** confidentiality class *)
  mutable integrity : Security_class.t option;
      (** Biba integrity class, when the deployment labels integrity
          (a separate lattice from [klass]); [None] means unlabelled
          and exempt from integrity rules *)
  generation : int Atomic.t;
      (** monotone counter bumped by every setter below; derived
          artifacts (the compiled ACL, certificates, handle grants)
          are validated against it, so any metadata change
          invalidates them.

          Ordering contract (their soundness hinges on it): a
          setter writes the field {e first} and bumps the generation
          {e after}, so observing a bumped value through {!generation}
          synchronizes with the increment and guarantees the field
          write is visible.  Symmetrically, consumers must read the
          generation {e before} recomputing from the fields and store
          any derived result under that pre-read value — a concurrent
          mutation then always lands a higher generation than the one
          the stale derivation was filed under. *)
  mutable compiled : compiled_slot option;
      (** memoized compiled form of [acl]; see {!compiled_acl} *)
}

val make :
  owner:Principal.individual -> ?acl:Acl.t -> ?integrity:Security_class.t ->
  Security_class.t -> t
(** [make ~owner klass] builds metadata.  When [acl] is omitted the
    owner-default ACL is used (owner holds every mode); [integrity]
    defaults to unlabelled. *)

val copy : t -> t
(** A metadata record sharing no mutable state with the original; the
    copy has a fresh identity. *)

val generation : t -> int
(** The current mutation generation; starts at 0 and increases on
    every [set_*] below.  Never reused within one record, so
    [(id, generation)] names an immutable snapshot of the metadata. *)

val touch : t -> unit
(** Bump the generation alone: {!Namespace.remove} retires a removed
    node this way, so whatever was derived from it fails closed. *)

val set_owner : t -> Principal.individual -> unit
val set_acl_raw : t -> Acl.t -> unit
val set_klass_raw : t -> Security_class.t -> unit
val set_integrity_raw : t -> Security_class.t option -> unit
(** Unchecked field updates (the record is private so identities
    cannot be forged); normal code mutates through the reference
    monitor's [set_acl]/[set_class].  Each setter publishes
    field-then-generation, per the ordering contract above. *)

val compiled_acl : t -> db:Principal.Db.t -> Acl_compiled.t
(** The compiled form of the object's current ACL, memoized on the
    record.  A cached form is reused only while {e both} the metadata
    generation it was compiled under and the database generation of
    its snapshot still match the live counters; any [set_*] above or
    group-membership change forces a recompile.  Generations are read
    before the slot (and, on a miss, before the ACL field), so a
    mutation racing with the compile strands the new slot on a stale
    stamp — it can never validate afterwards.  The validation hit path
    allocates nothing. *)

val pp : Format.formatter -> t -> unit
