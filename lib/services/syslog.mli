(** The system log: a worked example of the [write-append] access
    mode and the mandatory [*]-property (paper, sections 2.1-2.2).

    The log's {e data object} lives at [/svc/log/data] and is
    classified high (by default at the top of the lattice), with an
    ACL granting everyone [Write_append].  Under MAC any subject may
    therefore {e append} — information flows up — but only subjects
    whose class dominates the log's may {e read} it, and nobody below
    it can overwrite or truncate it (no blind overwrite of a
    higher-trust object). *)

open Exsec_core
open Exsec_extsys

type log_state
(** The shared entry list behind one log's data object.  All access
    goes through a per-log mutex (the list is reachable from every
    domain that resolves the data object), with an O(1) length
    maintained under the same lock. *)

type Kernel.entry += Log_data of log_state
(** The name-space payload at {!data_path}.  Exposed so a request
    front end ({!Exsec_serve}) can serve wire-level reads and writes
    against a resolved log object through the safe accessors below. *)

val state_append : log_state -> string -> unit
val state_entries : log_state -> string list
(** Oldest first. *)

val state_size : log_state -> int
(** O(1); does not walk the list. *)

val state_truncate : log_state -> unit

val state_replace : log_state -> string list -> unit
(** Atomically replace the whole log (a checked full [Write]). *)

type t

val install :
  Kernel.t -> subject:Subject.t -> ?klass:Security_class.t -> unit ->
  (t, Service.error) result
(** Publish the log under [/svc/log].  [klass] (default: the lattice
    top) classifies the log data. *)

val mount_point : Path.t
val data_path : Path.t

val append : t -> subject:Subject.t -> string -> (unit, Service.error) result
(** Checked [Write_append] on the data object. *)

val entries : t -> subject:Subject.t -> (string list, Service.error) result
(** Checked [Read]; oldest first. *)

val truncate : t -> subject:Subject.t -> (unit, Service.error) result
(** Checked full [Write]: empties the log. *)

val size : t -> int
(** Unchecked entry count (for tests); O(1). *)

val append_metrics : t -> subject:Subject.t -> (unit, Service.error) result
(** Snapshot the whole [Exsec_obs] metrics registry as structured
    [key=value] lines ({!Exsec_obs.Metrics.snapshot_lines}): one
    counters-and-gauges line plus one latency line per histogram.
    Each line is a separate checked [Write_append]; a denial stops
    the export at that point. *)
