(** Per-call trace spans with a bounded ring of recent completions.

    A span names one traversal of the kernel hot path
    ([Kernel.call] → resolution → monitor decisions → dispatch) and
    accumulates [key=value] fields as the call descends.  Tracing is
    off by default and independent of the metrics switch; when off, a
    handle is a static [None], so instrumented code allocates nothing
    and pays one atomic load per span site.

    Spans are owned by the starting domain until {!finish} publishes
    them into the ring (one mutex, held only for the slot write);
    {!tail} only ever observes finished spans. *)

type span

type handle
(** A possibly-inactive span.  [none] (and every handle started while
    tracing is off) ignores {!annotate} and {!finish}. *)

val none : handle

val enabled : unit -> bool
val set_enabled : bool -> unit

val observing : unit -> bool
(** Metrics collection or tracing is on.  The one test a hot layer
    makes before anything else: when it is false the layer runs its
    bare logic, and when it is true the same logic runs inside the
    layer's counters, timers and span. *)

val capacity : unit -> int
val set_capacity : int -> unit
(** Resize the ring of retained spans (default 256), dropping current
    contents.  @raise Invalid_argument unless positive. *)

val clear : unit -> unit

val start : string -> handle
(** Open a span (inactive when tracing is off). *)

val active : handle -> bool
(** Gate for field rendering: call sites guard any allocation needed
    to build a field value with [if Trace.active span then ...]. *)

val annotate : handle -> string -> string -> unit
val finish : handle -> unit
(** Stamp the duration and retain the span in the ring. *)

val tail : ?count:int -> unit -> span list
(** The most recent finished spans, oldest first; [count] defaults to
    the full retained window and is clamped at 0. *)

val span_id : span -> int
val span_name : span -> string
val span_duration_ns : span -> int
val span_fields : span -> (string * string) list
(** Annotation order, oldest first. *)

val pp_span : Format.formatter -> span -> unit
val span_to_line : span -> string
val span_to_json : span -> string
