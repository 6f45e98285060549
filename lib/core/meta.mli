(** Security metadata attached to every protected object.

    Each named object — a file, a directory, a service procedure, an
    interface, a domain — carries an owner, an access control list and
    a security class.  The reference monitor consults exactly this
    record; nothing else about an object matters to protection.

    A value is immutable: an edit builds the next value ({!with_acl},
    {!with_klass}, {!with_integrity}) and publishes it where the
    object lives ({!Namespace.publish}).  Whatever was decided or
    proved from a value stays right while the object still holds that
    very value ([==]), so grants and certificates keep the value they
    read and compare it physically; nothing counts edits. *)

type compiled_slot = Acl_compiled.t
(** The memoized compiled form of a value's own ACL ({!compiled_in}). *)

type t = private {
  id : int;  (** unique object identity, assigned at creation and kept
                 by every [with_*] edit; names can be reused (delete +
                 recreate), identities never are — flow analysis
                 depends on this.  Identities are drawn from a
                 process-wide atomic counter, so objects may be created
                 from any domain *)
  owner : Principal.individual;
  acl : Acl.t;
  klass : Security_class.t;  (** confidentiality class *)
  integrity : Security_class.t option;
      (** Biba integrity class, when the deployment labels integrity
          (a separate lattice from [klass]); [None] means unlabelled
          and exempt from integrity rules *)
  mutable compiled : compiled_slot option;
      (** memo of [acl]'s compiled form; see {!compiled_in} *)
}

val make :
  owner:Principal.individual -> ?acl:Acl.t -> ?integrity:Security_class.t ->
  Security_class.t -> t
(** [make ~owner klass] builds metadata.  When [acl] is omitted the
    owner-default ACL is used (owner holds every mode); [integrity]
    defaults to unlabelled. *)

val copy : t -> t
(** The same owner, ACL and labels under a fresh identity, with no
    compiled form. *)

val with_acl : t -> Acl.t -> t
(** The next value of the same object with [acl]; it starts with no
    compiled form. *)

val with_klass : t -> Security_class.t -> t
(** The next value of the same object relabelled; the ACL is the same,
    so it shares the compiled form. *)

val with_integrity : t -> Security_class.t option -> t
(** As {!with_klass}, for the integrity label. *)

val compiled_in : t -> Principal.Db.Snapshot.t -> Acl_compiled.t
(** The compiled form of the value's ACL, memoized on the value and
    valid for [snapshot]: the memo is reused while it is
    {!Acl_compiled.valid_for} the snapshot, which fails only for a
    group registration when the form compiled a group away (that group
    may be the one registered).  The ACL never changes under the memo,
    so nothing else forces a recompile: membership churn and every
    other registration leave the slot physically unchanged (checks
    read membership from the snapshot they are given, and ids never
    change).  Racing compiles store equally valid forms, each whole.
    The hit path allocates nothing. *)

val compiled_acl : t -> db:Principal.Db.t -> Acl_compiled.t
(** {!compiled_in} the database's current snapshot. *)

val pp : Format.formatter -> t -> unit
