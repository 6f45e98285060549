(** Biba-style integrity control — the dual of the confidentiality
    lattice.

    The paper bases its mandatory access control "on the lattice model
    of information flow [1, 5, 3]", where [3] is Biba's {e Integrity
    Considerations for Secure Computer Systems}: confidentiality keeps
    secrets from flowing down, integrity keeps corruption from flowing
    up.  Under the strict integrity policy a subject may {e observe}
    only objects of equal or higher integrity (no read-down: garbage
    in, garbage out) and {e modify} only objects of equal or lower
    integrity (no write-up: a low-integrity extension cannot taint a
    high-integrity service).

    Integrity classes reuse {!Security_class.t} over their own
    hierarchy/universe; the rules here are exactly the mirror image of
    {!Mac}.  The reference monitor applies them when both subject and
    object carry integrity labels (see {!Meta.t} and {!Subject}). *)

val read_ok : subject:Security_class.t -> object_:Security_class.t -> bool
(** No read-down: the object's integrity must dominate the
    subject's. *)

val write_ok : subject:Security_class.t -> object_:Security_class.t -> bool
(** No write-up: the subject's integrity must dominate the
    object's. *)

type denial =
  | Read_down  (** observing a lower-integrity object *)
  | Write_up  (** modifying a higher-integrity object *)

val check :
  subject:Security_class.t ->
  object_:Security_class.t ->
  Access_mode.t ->
  (unit, denial) result
(** Apply {!read_ok} to read-like modes and {!write_ok} to write-like
    modes (classification per {!Access_mode.is_read_like}). *)

val permits :
  subject:Security_class.t -> object_:Security_class.t -> Access_mode.t -> bool

val denial_to_string : denial -> string
val pp_denial : Format.formatter -> denial -> unit
