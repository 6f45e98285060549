(** Linearly ordered trust levels (paper, section 2.2).

    A {e hierarchy} fixes a finite, linearly ordered set of level
    names, highest trust first in the paper's example
    ([local > organization > others]).  Levels from different
    hierarchies are incomparable and attempting to compare them is a
    programming error. *)

type hierarchy
(** A linearly ordered set of level names. *)

type t
(** One level within a hierarchy. *)

val hierarchy : string list -> hierarchy
(** [hierarchy names] builds a hierarchy with [names] listed from
    {e highest} to {e lowest} trust.
    @raise Invalid_argument on an empty list or duplicate names. *)

val names : hierarchy -> string list
(** Level names, highest first (as given to {!hierarchy}). *)

val of_name : hierarchy -> string -> t option
val of_name_exn : hierarchy -> string -> t
val name : t -> string

val rank : t -> int
(** Numeric rank; the {e lowest} level has rank [0], so higher trust
    means greater rank. *)

val top : hierarchy -> t
(** The highest-trust level. *)

val bottom : hierarchy -> t
(** The lowest-trust level. *)

val hierarchy_of : t -> hierarchy

val same_hierarchy : t -> t -> bool

val compare : t -> t -> int
(** Orders by trust.
    @raise Invalid_argument when the levels belong to different
    hierarchies. *)

val equal : t -> t -> bool
val dominates : t -> t -> bool
(** [dominates a b] iff [a] is at least as trusted as [b]. *)

val max : t -> t -> t
val min : t -> t -> t
val pp : Format.formatter -> t -> unit
