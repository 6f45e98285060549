(** Security classes: the product lattice of a trust level and a
    category set (paper, section 2.2; after Bell-LaPadula and
    Denning's lattice model of secure information flow).

    [a] {e dominates} [b] when [a]'s level is at least [b]'s and [a]'s
    categories are a superset of [b]'s.  Dominance is a partial order;
    [join]/[meet] give least upper and greatest lower bounds, so
    classes over one (hierarchy, universe) pair form a lattice. *)

type t = {
  level : Level.t;
  categories : Category.t;
}

val make : Level.t -> Category.t -> t
val level : t -> Level.t
val categories : t -> Category.t

val dominates : t -> t -> bool
(** @raise Invalid_argument when the classes mix hierarchies or
    universes. *)

val equal : t -> t -> bool
val comparable : t -> t -> bool
(** [true] iff one of the two dominates the other. *)

val join : t -> t -> t
(** Least upper bound: max level, union of categories. *)

val meet : t -> t -> t
(** Greatest lower bound: min level, intersection of categories.  When
    one class dominates the other, the lower one itself is returned,
    so meeting comparable classes allocates nothing. *)

val top : Level.hierarchy -> Category.universe -> t
val bottom : Level.hierarchy -> Category.universe -> t

val bottom_of : t -> t
(** The bottom of the lattice the class belongs to. *)

val pp : Format.formatter -> t -> unit
