(** A round-robin scheduler over simulated threads.

    Deterministic and cooperative: each call to {!step} gives one
    quantum to the next live thread in the ring; {!run} drives the
    ring until every thread is done, killed, or a step budget runs
    out.  Determinism matters — the ThreadMurder reproduction (bench
    T2) depends on interleaving victims and the murderer in a fixed
    order.

    The ring is a growable array in insertion order, so {!add} is
    amortized O(1) and each thread's rotation position is stable: a
    thread dying mid-rotation is simply skipped, it never shifts a
    neighbour's slot, so within one full cursor wrap every live
    thread receives exactly one quantum. *)

type t

val create : unit -> t

val add : t -> Thread.t -> unit
(** Append to the ring; amortized O(1). *)

val threads : t -> Thread.t list
(** In the order added (finished and killed threads included). *)

val alive : t -> Thread.t list

val listed : t -> Thread.t list
(** The live threads and the faulted ones, in the order added: what the
    operator listings (the shell's [threads], introspection's
    [threads]) show.  A faulted thread stays listed with its fault; a
    finished or killed one drops out. *)

val find : t -> int -> Thread.t option

val step : t -> bool
(** Give one quantum to the next live thread at or after the cursor;
    [false] when no thread is live. *)

val run : ?max_quanta:int -> t -> int
(** Step until all threads finish or [max_quanta] (default 100_000)
    quanta elapse; returns the quanta consumed. *)
