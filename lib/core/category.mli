(** Categories and category sets (paper, section 2.2).

    A {e universe} fixes the finite set of category names in use; a
    category set is a subset of one universe.  Subsets are partially
    ordered by inclusion, providing the compartment half of the
    security-class lattice. *)

type universe
type t
(** A subset of a universe's categories. *)

val universe : string list -> universe
(** @raise Invalid_argument on duplicates or an empty name. *)

val universe_names : universe -> string list
(** Category names in declaration order. *)

val universe_size : universe -> int

val empty : universe -> t
val full : universe -> t
val of_names : universe -> string list -> t
(** @raise Invalid_argument on a name outside the universe. *)

val universe_of : t -> universe

val names : t -> string list
val mem : t -> string -> bool
val cardinal : t -> int
val same_universe : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] iff [a]'s categories are all in [b].
    @raise Invalid_argument across universes. *)

val equal : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val pp : Format.formatter -> t -> unit
