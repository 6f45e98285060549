(** Mandatory access control rules (paper, section 2.2).

    Subjects may {e view} an object when their class dominates the
    object's (no read-up), and {e modify} it when the object's class
    dominates theirs (the [*]-property: no write-down).  The paper
    notes that plain [write] may have to be restricted further so a
    lower-trust subject cannot blindly overwrite a higher-trust
    object; the {!overwrite_rule} knob captures that: under {!Strict},
    plain [Write] and [Delete] require {e equal} classes while
    [Write_append] keeps the liberal [*]-property. *)

type overwrite_rule =
  | Liberal  (** any write-like mode follows the plain [*]-property *)
  | Strict
      (** [Write]/[Delete] require equal classes; [Write_append] (and
          [Extend], [Administrate]) keep the [*]-property *)

val read_ok : subject:Security_class.t -> object_:Security_class.t -> bool
(** The simple-security property: subject dominates object. *)

val write_ok : subject:Security_class.t -> object_:Security_class.t -> bool
(** The [*]-property: object dominates subject. *)

val permits :
  rule:overwrite_rule ->
  subject:Security_class.t ->
  object_:Security_class.t ->
  Access_mode.t ->
  bool
(** Apply the read rule to read-like modes and the write rule
    (possibly strict) to write-like modes. *)

type denial =
  | Read_up  (** subject class does not dominate the object's *)
  | Write_down  (** object class does not dominate the subject's *)
  | Blind_overwrite
      (** strict rule: write at unequal classes, append required *)

val check :
  rule:overwrite_rule ->
  subject:Security_class.t ->
  object_:Security_class.t ->
  Access_mode.t ->
  (unit, denial) result

val denial_to_string : denial -> string
val pp_denial : Format.formatter -> denial -> unit
