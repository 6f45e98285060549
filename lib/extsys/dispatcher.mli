(** One event's handler set: dynamic binding of extensions to the
    services they specialize (after Pardyak & Bershad's SPIN
    dispatcher, extended with the paper's class-indexed selection).

    Every extensible service procedure doubles as an {e event}, and
    the event's node in the name space owns its set
    ([Kernel.Event of t]): removing the node drops its handlers.
    Extensions register {e handlers} on an event; a handler carries
    the static security class of its extension and an optional guard
    predicate over the arguments.  When the event is raised, only
    handlers whose class the caller's effective class {e dominates}
    and whose guard accepts the arguments are {e eligible} — "the right
    extension is selected based on the security class of the caller"
    (paper, section 2.2).

    The set keeps one fixed order, computed at registration: level
    rank descending, then category count descending, then registration
    order.  Strict dominance raises the level or adds a category, so
    the order extends it: the first eligible handler is maximal among
    the eligible ones, and {!select} is always the head of
    {!select_all}.  Two handlers are ordered by their own classes
    alone, so a handler a caller cannot see never reorders the ones it
    can. *)

open Exsec_core

type handler = {
  owner : string;  (** name of the extension that registered it *)
  klass : Security_class.t;  (** the handler's static class *)
  guard : (Value.t list -> bool) option;
  impl : Service.impl;
}

type t

val create : unit -> t
(** An empty set. *)

val register : t -> handler -> unit
(** Insert at the handler's place in the order, after every handler of
    the same level and category count: O(n).  The set is an immutable
    array replaced whole, so a raise on another domain sees the old
    set or the new one. *)

val unregister_owner : t -> string -> unit
(** Drop every handler the named extension registered in this set. *)

val handlers : t -> handler list
(** Every handler, in dispatch order. *)

val select : t -> caller_class:Security_class.t -> args:Value.t list -> handler
(** The handler that will run for this caller: the first eligible one
    in the order.  A scan that allocates nothing.
    @raise Stdlib.Not_found when no handler is eligible. *)

val select_all :
  t -> caller_class:Security_class.t -> args:Value.t list -> handler list
(** Every eligible handler, in the order — for broadcast events where
    all interested extensions observe the event. *)
