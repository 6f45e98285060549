(** Kernel introspection: system state published as protected objects
    (a procfs for the extensible system).

    Everything an operator needs to see — loaded extensions, live
    threads, audit counters, the mount layout — appears under
    [/svc/introspect] as ordinary callable procedures, so visibility
    itself is subject to the one protection mechanism: the
    status procedures are world-callable, the audit-reading ones are
    classified at the top of the lattice (reading the audit trail
    reveals every subject's behaviour, the most sensitive information
    in the system).

    Procedures:
    - [extensions : () -> list str]       loaded extension names
    - [threads : () -> list (pair int str)]  live thread ids and names,
      and the faulted threads as [(id, (name, fault))], in the order
      spawned ({!Exsec_extsys.Sched.listed})
    - [audit_totals : () -> (granted, denied)]   counters only
    - [audit_tail : int -> list str]      rendered recent events (classified)
    - [namespace_size : () -> int]        node count
    - [handle_stats : () -> list (pair str int)]  capability-handle
      table counters (capacity, live, mints, closes)
    - [handles : () -> list str]          one line per live handle —
      slot, pinned path, owning caller, bound principal (classified
      like [audit_tail]: the table describes everyone's access)
    - [metrics : () -> list (pair str int)]  the whole [Exsec_obs]
      registry: counters and gauges verbatim, histograms flattened to
      [<name>.count]/[.sum_ns]/[.p50_ns]/[.p95_ns]/[.p99_ns], plus an
      [enabled] flag pair first
    - [trace_tail : int -> list str]      rendered recent call spans
      (classified like [audit_tail]; count clamped at 0) *)

open Exsec_core
open Exsec_extsys

val install : Kernel.t -> subject:Subject.t -> (unit, Service.error) result
val mount_point : Path.t
val audit_tail_path : Path.t
val metrics_path : Path.t
val trace_tail_path : Path.t
