(** Dense, unforgeable capability handles: the object-manager table
    behind {!Kernel.open_handle} / {!Kernel.call_handle}.

    A handle names one slot in a per-kernel table plus the {e stamp}
    the slot carried when the handle was minted.  Stamps are drawn
    from a per-table monotone counter, so a handle outlives neither a
    {!close} of its slot nor the slot's reuse by a later {!mint}: the
    stamp comparison in {!deref} fails and the probe answers [None] —
    a recycled slot can never satisfy a stale handle.

    The table itself knows nothing about access control; it stores an
    arbitrary payload per slot (the kernel stores its grant records —
    resolved target, bound subject, the values its decision read) and guarantees
    only identity: a successful {!deref} returns exactly the payload
    most recently installed under that handle's stamp.

    Concurrency: {!deref} is lock-free — one array load, one atomic
    slot read of an immutable cell, two integer compares, zero
    allocation — and safe against concurrent mint/close/grow because
    stamp and payload live in the same immutable cell.  Mint, close
    and growth serialize on one mutex (they are control-plane
    operations); {!update} CASes the cell so a racing {!close} is
    never resurrected. *)

type h
(** A capability handle.  Abstract: holders cannot forge one, only
    receive one from {!mint}. *)

val pp : Format.formatter -> h -> unit

val index : h -> int
(** The slot index, for diagnostics and introspection output.  Knowing
    an index does not let a caller build a handle. *)

type 'a t

type stats = {
  hs_capacity : int;  (** current slot-array length *)
  hs_live : int;  (** slots holding a payload *)
  hs_mints : int;  (** handles minted over the table's lifetime *)
  hs_closes : int;  (** handles closed over the table's lifetime *)
}

val create : ?initial_capacity:int -> unit -> 'a t
(** An empty table; the slot array starts at [initial_capacity]
    (default 64) and doubles on demand. *)

val mint : 'a t -> 'a -> h
(** Install the payload in a free slot (reusing closed slots first)
    under a fresh stamp and return the handle for it. *)

val deref : 'a t -> h -> 'a option
(** The payload minted or last {!update}d under this handle, or [None]
    once the handle is closed — including when the slot has since been
    recycled for a new mint.  Allocation-free: the returned option is
    the one stored in the slot's cell. *)

val update : 'a t -> h -> 'a -> bool
(** Replace the payload under the {e same} stamp (the kernel re-mints
    a grant in place after revalidating a drifted one); the handle
    stays valid.  [false] if the handle is closed — a concurrent close
    wins and is never resurrected. *)

val close : 'a t -> h -> 'a option
(** Retire the handle, returning the payload it held; [None] (and no
    effect) when already closed.  The slot becomes reusable; the
    departed stamp never matches again. *)

val iter : 'a t -> (h -> 'a -> unit) -> unit
(** Visit every live slot with its current handle, for introspection.
    Snapshot semantics under concurrency: slots minted or closed while
    iterating may or may not be seen. *)

val stats : 'a t -> stats
