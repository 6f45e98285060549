open Exsec_core
open Exsec_extsys
module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace

let mount_point = Path.of_string "/svc/introspect"
let audit_tail_path = Path.of_string "/svc/introspect/audit_tail"
let metrics_path = Path.of_string "/svc/introspect/metrics"
let trace_tail_path = Path.of_string "/svc/introspect/trace_tail"

let extensions_impl kernel _ctx _args =
  Ok (Value.list (List.map Value.str (Kernel.loaded_extensions kernel)))

let threads_impl kernel _ctx _args =
  let entry thread =
    let name = Value.str (Thread.name thread) in
    Value.pair
      (Value.int (Thread.id thread))
      (match Thread.state thread with
      | Thread.Faulted fault -> Value.pair name (Value.str fault)
      | Thread.Ready | Thread.Done | Thread.Killed -> name)
  in
  Ok (Value.list (List.map entry (Sched.listed (Kernel.sched kernel))))

let audit_totals_impl kernel _ctx _args =
  let audit = Reference_monitor.audit (Kernel.monitor kernel) in
  Ok (Value.pair (Value.int (Audit.granted_total audit)) (Value.int (Audit.denied_total audit)))

let audit_tail_impl kernel _ctx args =
  (* Negative counts clamp to 0 (empty tail) rather than leaking the
     whole log, and [Audit.tail] reads only the requested window of
     the ring instead of materializing the whole log. *)
  let count =
    match args with
    | [ Value.Int n ] -> Stdlib.max 0 n
    | _ -> 16
  in
  let audit = Reference_monitor.audit (Kernel.monitor kernel) in
  let tail = Audit.tail audit ~count in
  Ok (Value.list (List.map (fun e -> Value.str (Format.asprintf "%a" Audit.pp_event e)) tail))

let namespace_size_impl kernel _ctx _args =
  Ok (Value.int (Namespace.size (Kernel.namespace kernel)))

let handle_stats_impl kernel _ctx _args =
  let stats = Kernel.handle_stats kernel in
  let counter name value = Value.pair (Value.str name) (Value.int value) in
  Ok
    (Value.list
       [
         counter "capacity" stats.Handle.hs_capacity;
         counter "live" stats.Handle.hs_live;
         counter "mints" stats.Handle.hs_mints;
         counter "closes" stats.Handle.hs_closes;
       ])

let handles_impl kernel _ctx _args =
  (* One line per live handle: which slot pins which path, minted for
     which extension, bound to which principal.  Classified like the
     audit tail — the table describes everyone's access. *)
  Ok
    (Value.list
       (List.map
          (fun (slot, path, caller, principal) ->
            Value.str (Printf.sprintf "#%d %s caller=%s principal=%s" slot path caller principal))
          (Kernel.live_handles kernel)))

let metrics_impl _kernel _ctx _args =
  (* The whole registry as (name, value) pairs, in the handle_stats
     shape: counters and gauges verbatim, each histogram flattened to
     <name>.count / .sum_ns / .p50_ns / .p95_ns / .p99_ns (percentiles
     rounded to integer nanoseconds — Value has no float). *)
  let snap = Metrics.snapshot () in
  let pair name value = Value.pair (Value.str name) (Value.int value) in
  let counters = List.map (fun (name, value) -> pair name value) snap.Metrics.counters in
  let gauges = List.map (fun (name, value) -> pair name value) snap.Metrics.gauges in
  let histograms =
    List.concat_map
      (fun (name, summary) ->
        [
          pair (name ^ ".count") summary.Metrics.hs_count;
          pair (name ^ ".sum_ns") summary.Metrics.hs_sum_ns;
          pair (name ^ ".p50_ns") (int_of_float summary.Metrics.p50_ns);
          pair (name ^ ".p95_ns") (int_of_float summary.Metrics.p95_ns);
          pair (name ^ ".p99_ns") (int_of_float summary.Metrics.p99_ns);
        ])
      snap.Metrics.histograms
  in
  Ok
    (Value.list
       (pair "enabled" (if snap.Metrics.snap_enabled then 1 else 0)
       :: (counters @ gauges @ histograms)))

let trace_tail_impl _kernel _ctx args =
  let count =
    match args with
    | [ Value.Int n ] -> Stdlib.max 0 n
    | _ -> 16
  in
  let spans = Trace.tail ~count () in
  Ok (Value.list (List.map (fun span -> Value.str (Trace.span_to_line span)) spans))

let install kernel ~subject =
  let owner = Subject.principal subject in
  let open_meta () = Kernel.default_meta kernel ~owner () in
  (* Reading the audit trail exposes everyone's behaviour: top class,
     owner-only DAC. *)
  let audit_meta () =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (Security_class.top (Kernel.hierarchy kernel) (Kernel.universe kernel))
  in
  let ( let* ) = Result.bind in
  let* () = Kernel.add_dir kernel ~subject mount_point ~meta:(open_meta ()) in
  let install name arity meta impl =
    Kernel.install_proc kernel ~subject (Path.child mount_point name) ~meta
      (Service.proc name arity impl)
  in
  let* () = install "extensions" 0 (open_meta ()) (extensions_impl kernel) in
  let* () = install "threads" 0 (open_meta ()) (threads_impl kernel) in
  let* () = install "audit_totals" 0 (open_meta ()) (audit_totals_impl kernel) in
  let* () = install "audit_tail" (-1) (audit_meta ()) (audit_tail_impl kernel) in
  let* () = install "namespace_size" 0 (open_meta ()) (namespace_size_impl kernel) in
  let* () = install "handle_stats" 0 (open_meta ()) (handle_stats_impl kernel) in
  let* () = install "handles" 0 (audit_meta ()) (handles_impl kernel) in
  let* () = install "metrics" 0 (open_meta ()) (metrics_impl kernel) in
  (* Traces carry paths and subjects of everyone's calls — classified
     like the audit tail. *)
  install "trace_tail" (-1) (audit_meta ()) (trace_tail_impl kernel)
