(** Audit log of security-relevant events.

    The paper lists auditing among the concerns an access-control
    model must support.  The reference monitor records every decision
    here; the log keeps a bounded window of recent events plus running
    totals, so long benchmarks do not grow memory without bound.

    The pipeline is {e sharded}: events are spread over per-shard
    rings (shard key: a hash of the recording domain and the subject),
    each behind its own mutex, with one shared atomic sequence counter
    ordering events globally.  Recording domains therefore do not
    serialize on a single lock — the property the multi-domain scaling
    benches (A8) measure.  Retention does not depend on the shard
    count: reads return the newest [capacity] events of the whole log.
    Totals remain conserved:
    [granted_total + denied_total] always equals the number of
    completed {!record} calls. *)

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

val create : ?capacity:int -> ?shards:int -> unit -> t
(** [capacity] (default 4096, must be > 0) is the number of events
    the log retains: {!events} returns the newest [capacity] recorded,
    across all shards.  Each shard's ring holds its own newest
    [capacity], which is what makes that exact.  [shards] defaults to
    the runtime-recognized domain count and must be positive; it
    changes lock contention, never what is retained. *)

val shard_count : t -> int
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
(** Stamp the event from the shared sequence counter, build it outside
    any critical section, then append it to its shard under that
    shard's lock (ring slot + counters only). *)

val events : t -> event list
(** The newest [capacity] events (fewer while fewer were recorded),
    merged across shards on the global sequence number, oldest
    first. *)

val tail : t -> count:int -> event list
(** The newest [count] retained events, oldest first — equal to the
    last [count] elements of {!events} but gathering only [count]
    events per shard before the merge.  Negative counts are treated as
    0; counts above [capacity] as [capacity]. *)

val granted_total : t -> int
val denied_total : t -> int
val total : t -> int
val clear : t -> unit
(** Forget retained events and totals. *)

val pp_event : Format.formatter -> event -> unit
