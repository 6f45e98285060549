(** A process-wide metrics registry, safe under OCaml 5 domains.

    Three instrument kinds, all named, all interned in one registry:

    - {e counters}: monotonically increasing atomic ints;
    - {e gauges}: last-write-wins atomic ints;
    - {e histograms}: log-scaled (one bucket per octave of
      nanoseconds) latency distributions with estimated p50/p95/p99.

    The registry boots in {e noop} mode: until {!set_enabled}[ true],
    every hot operation is one atomic load and an untaken branch — no
    clock read and no allocation, so instrumented code paths keep
    their zero-allocation guarantees (a regression test pins this).
    Instrument handles are cheap to intern once at module
    initialization and hold no lock on the hot path. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Turn collection on or off process-wide.  Off (the boot state) is
    the noop mode benchmarked by ablation A9. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds (gettimeofday-backed; microsecond
    granularity, which the octave buckets absorb). *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Intern (get or create) the counter of that name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val gauge_name : gauge -> string

(** {1 Histograms} *)

type histogram

val histogram : ?sample_shift:int -> string -> histogram
(** Intern the histogram of that name.  [sample_shift] (default 0)
    makes {!start_timing} sample only 1 of [2{^ shift}] pairs — used
    on sub-microsecond paths where two clock reads per event would
    dominate; percentile estimates are unaffected by uniform
    sampling.  The shift is fixed by whichever call interns the
    histogram first.  @raise Invalid_argument if negative. *)

val observe : histogram -> int -> unit
(** Record a duration in nanoseconds (noop when collection is off). *)

val start_timing : histogram -> int
(** Begin timing one event: returns a clock stamp, or [0] when
    collection is off or this event is not sampled.  Pass the result
    to {!stop_timing}; a [0] stamp makes it a no-op, so callers need
    no branch of their own. *)

val start_counted : counter -> histogram -> int
(** [incr c] followed by [start_timing h], in one fetch-and-add: the
    counter's count before the increment decides whether this event is
    one of the 1 in [2{^ shift}] that are timed, in place of [h]'s own
    tick.  When the counter counts exactly the events the histogram
    times (as [monitor.decisions] counts the decides [monitor.decide_ns]
    samples), or the histogram times every event (shift 0), the
    counter and the histogram read as with the two calls apart.
    Returns [0] when collection is off or the event is not sampled. *)

val stop_timing : histogram -> int -> unit
val count : histogram -> int
val sum_ns : histogram -> int

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile in nanoseconds by
    linear interpolation inside the matching octave bucket; [0.] when
    empty.  Reads race benignly with concurrent observes. *)

val histogram_name : histogram -> string

(** {1 Snapshots and rendering} *)

type histogram_summary = {
  hs_count : int;
  hs_sum_ns : int;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
}

type snapshot = {
  snap_enabled : bool;
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : (string * histogram_summary) list;
}

val snapshot : unit -> snapshot
val summarize : histogram -> histogram_summary

val reset : unit -> unit
(** Zero every registered instrument in place (handles stay valid);
    for tests and benchmark harnesses. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Human-readable multi-line rendering (the [exsecd metrics] text
    form). *)

val snapshot_lines : snapshot -> string list
(** Structured [key=value] lines: one ["metrics ..."] line for
    counters and gauges, one ["latency <name> ..."] line per
    histogram — the syslog export shape. *)

val snapshot_to_json : snapshot -> string

val json_string : string -> string
(** Quote and escape one string as a JSON literal (shared by the
    other exporters in this library). *)
