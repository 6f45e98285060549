(** Access modes for objects in an extensible system.

    The paper (section 2.1) extends the conventional file-system modes
    with two modes specific to extensions: [Execute] permits an
    extension to {e call} a service, and [Extend] permits an extension
    to {e specialize} (extend) a service. *)

type t =
  | Read  (** view the contents of an object *)
  | Write  (** modify the contents of an object arbitrarily *)
  | Write_append  (** modify an object only by appending to it *)
  | Administrate  (** change the object's access control list *)
  | Delete  (** remove the object *)
  | List  (** enumerate a container's entries / resolve through it *)
  | Execute  (** call on a system service *)
  | Extend  (** extend (specialize) a system service *)

val all : t list
(** Every access mode, in declaration order. *)

external index : t -> int = "%identity"
(** The dense 0-based code in declaration order ([Read] 0 to [Extend]
    7), suitable as a hash-table key component.  It is the constant
    constructor's own representation, so it costs no instruction. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** Lower-case mode name, e.g. ["write-append"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on unknown names. *)

val pp : Format.formatter -> t -> unit

val is_write_like : t -> bool
(** [true] for the modes that modify an object ([Write],
    [Write_append], [Administrate], [Delete]); mandatory access
    control applies its write rule to these. *)

val is_read_like : t -> bool
(** [true] for modes that observe an object without altering its
    contents ([Read], [List], [Execute], [Extend]); mandatory access
    control applies its read rule to these.  [Extend] is read-like
    because registering a handler writes nothing {e into} the
    extended object: the handler carries the extension's own static
    class and the dispatcher's class-indexed selection governs the
    resulting information flow (paper, section 2.2). *)

module Set : sig
  (** Sets of access modes, represented as a bit set. *)

  type mode = t
  type t

  val empty : t
  val full : t
  val singleton : mode -> t
  val of_list : mode list -> t
  val to_list : t -> mode list
  val add : mode -> t -> t
  val remove : mode -> t -> t
  val mem : mode -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val is_empty : t -> bool
  val cardinal : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int

  val to_int : t -> int
  (** The underlying bit set: bit [index m] is set iff [mem m].  The
      compiled ACL form ({!Acl_compiled}) packs these masks into flat
      arrays; everything else should stay with the typed API. *)

  val pp : Format.formatter -> t -> unit

  val read_write : t
  (** Convenience: [{Read, Write}]. *)

  val call_only : t
  (** Convenience: [{Execute}]. *)
end
