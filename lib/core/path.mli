(** Hierarchical names in the universal name space (paper, section
    2.3).

    A path is a possibly empty sequence of non-empty segments; the
    empty sequence names the root.  The textual form is
    ["/seg/seg/..."], with ["/"] for the root.

    A path is stored leaf first: its last segment plus the path above
    it, one 3-word block per segment.  So {!child}, {!up}, {!last},
    {!parent} and {!basename} are O(1), and a child shares its
    parent's path.  {!depth}, {!is_prefix}, {!segments},
    {!to_string}, {!prefixes}, {!compare} and {!append} (in its second
    argument) walk the path, O(depth).  Every function that presents
    segments — {!segments}, {!to_string}, {!prefixes}, {!compare} —
    keeps the root-first meaning. *)

type t

val root : t
val of_segments : string list -> t
(** Root first.  @raise Invalid_argument on an empty segment or one
    containing ['/']. *)

val of_string : string -> t
(** Parse ["/a/b/c"]; leading slash optional, repeated slashes
    collapse.  @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val segments : t -> string list
(** Root first. *)

val is_root : t -> bool
val depth : t -> int

val up : t -> t
(** The path above: [up /a/b = /a]; the root's is the root.  O(1),
    allocates nothing.  With {!last}, the step of a walk that descends
    the path itself (see [Namespace.find]). *)

val last : t -> string
(** The final segment, O(1).  @raise Invalid_argument on the root. *)

val basename : t -> string option
(** Final segment; [None] for the root. *)

val parent : t -> t option
(** Enclosing path; [None] for the root. *)

val child : t -> string -> t
(** Append one segment, O(1) in the path (the new path shares [t]).
    @raise Invalid_argument on a bad segment. *)

val append : t -> t -> t
(** [append a b] concatenates; shares [a], copies [b]'s segments. *)

val is_prefix : t -> t -> bool
(** [is_prefix a b] iff [a] is an ancestor of (or equal to) [b]. *)

val prefixes : t -> t list
(** All ancestors from the root to the path itself, inclusive, in
    order: [prefixes /a/b = [/; /a; /a/b]].  The elements share one
    another's segments. *)

val equal : t -> t -> bool
(** Tests physical equality first, then compares from the last
    segment up, stopping at the first difference or at a shared
    ancestor; allocates nothing.  Paths in one table (a link's
    imports) share their root segments, so they differ first at the
    leaf. *)

val compare : t -> t -> int
(** Root-first lexicographic order over the segments, a proper prefix
    first — the order of [List.compare String.compare] over
    {!segments}.  Allocates nothing. *)

val pp : Format.formatter -> t -> unit
