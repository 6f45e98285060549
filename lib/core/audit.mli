(** Audit log of security-relevant events.

    The paper lists auditing among the concerns an access-control
    model must support.  The reference monitor records every decision
    here; the log keeps a bounded window of recent events plus running
    totals, so long benchmarks do not grow memory without bound.

    The log is one lock-free ring indexed by a global sequence number:
    a record takes its number from one shared atomic counter, builds
    its immutable event and stores it in slot [seq land (slots - 1)]
    with a compare-and-set that never replaces a newer event.  The
    slot count is the smallest power of two that holds [capacity], so
    the index is a mask, and an event is replaced one lap (the slot
    count) later.  Recording
    domains share no lock (the property the multi-domain bench A8
    measures), and reads return the newest [capacity] events
    whatever the number of domains or the host's cores. *)

type event = {
  seq : int;  (** monotonically increasing event number *)
  subject : Subject.t;  (** the acting subject, as of the check *)
  object_name : string;
  object_id : int;  (** the object's unique identity ({!Meta.t}[.id]) *)
  object_class : Security_class.t;  (** the object's class at check time *)
  mode : Access_mode.t;
  decision : Decision.t;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096, must be > 0) is the number of events
    the log retains: {!events} returns the newest [capacity]
    recorded.  The ring allocates the smallest power of two
    [>= capacity] slots. *)

val capacity : t -> int
(** The number of events retained. *)

val record :
  t ->
  subject:Subject.t ->
  object_name:string ->
  object_id:int ->
  object_class:Security_class.t ->
  mode:Access_mode.t ->
  Decision.t ->
  unit
(** Number the event from the shared sequence counter and store it in
    its ring slot: one atomic add, one 8-word event and one
    compare-and-set, plus one more atomic add for a denial.  No lock
    is taken.  A writer that falls a whole lap behind leaves the newer
    event in its slot, so its own event is not retained.

    Metrics cost one test of the switch: off, the record is {!append}
    alone; on, it also bumps [audit.records], whose count picks the 1
    in 16 records the [audit.record_ns] histogram times. *)

val append :
  t ->
  subject:Subject.t ->
  object_name:string ->
  object_id:int ->
  object_class:Security_class.t ->
  mode:Access_mode.t ->
  Decision.t ->
  unit
(** {!record} without its test of the metrics switch: the caller has
    read the switch already (a checked resolution reads it once for
    all of its levels) and found nothing observing. *)

val events : t -> event list
(** The newest [capacity] events, oldest first: [tail ~count:capacity]. *)

val tail : t -> count:int -> event list
(** The retained events among the newest [count] sequence numbers
    issued when the call starts, oldest first.  Negative counts are
    treated as 0; counts above [capacity] as [capacity].

    When no domain is recording, this is exactly the newest
    [min count capacity] events.  While domains record, slots still
    being written are skipped; an event is never returned twice or out
    of [seq] order. *)

val total : t -> int
(** Sequence numbers issued: every {!record} call begun. *)

val denied_total : t -> int

val granted_total : t -> int
(** [total - denied_total].  The three totals are exact whenever no
    {!record} is in flight (for example after [Domain.join]); until
    then a denial still in flight reads as a grant. *)

val clear : t -> unit
(** Forget retained events and totals.  Safe only when no domain is
    recording. *)

val pp_event : Format.formatter -> event -> unit
