(* The benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--nproc N] [--rev REV] [--spans FILE]

   Use run.py, which builds this in release mode and fills in the host
   facts.  The last line of standard output is the result object; the
   lines before it report every metric by name with its unit, the
   input properties and the provenance.  With --trace 0 the result
   carries the end-to-end metrics; with --trace 1 the per-layer ones
   (the same metric names as BENCHMARK.json).  A wrong or failed
   operation makes the exit code 1, after the result is printed. *)

module H = Harness

(* name, unit: the end_to_end list of BENCHMARK.json. *)
let end_to_end =
  [ "setup_s", "s"; "ops_per_s", "ops/s"; "p50_us", "us"; "p99_us", "us"; "heap_mb", "MB" ]

(* name, unit: the per_layer list of BENCHMARK.json.  A layer that does
   not run in a workload reports 0 there (see README.md for the map). *)
let per_layer =
  [
    "transport.handoff_us", "us";
    "wire.encode_ns", "ns";
    "wire.decode_ns", "ns";
    "wire.frame_bytes", "bytes";
    "server.request_us", "us";
    "server.hello_us", "us";
    "handshake_p50_us", "us";
    "resolver.resolve_us", "us";
    "resolver.resolve_us.p99", "us";
    "resolver.resolves_per_op", "count";
    "resolver.width_walked", "count";
    "monitor.decide_ns", "ns";
    "monitor.decisions_per_op", "count";
    "monitor.denied_frac", "ratio";
    "cache.hit_ratio", "ratio";
    "cache.invalidations_per_edit", "count";
    "acl.recompiles_per_edit", "count";
    "acl.compile_us", "us";
    "db.edit_us", "us";
    "db.snapshot_refresh_us", "us";
    "db.generation_bumps_per_edit", "count";
    "db.import_s", "s";
    "edit_p50_us", "us";
    "post_edit_p50_us", "us";
    "handle.call_ns", "ns";
    "handle.hit_ratio", "ratio";
    "handle.remints_per_edit", "count";
    "kernel.call_ns", "ns";
    "kernel.cert_fast_path_ratio", "ratio";
    "cert.admits_ns", "ns";
    "cert.survival_ratio", "ratio";
    "dispatcher.event_ns", "ns";
    "linker.link_ms", "ms";
    "linker.chain_handles", "count";
    "audit.records_per_op", "count";
    "memfs.read_ns", "ns";
    "memfs.replace_ns", "ns";
    "gc.minor_words_per_op", "words";
    "gc.major_collections", "count";
    "trace.ops_per_s", "ops/s";
    "trace.untraced_ops_per_s", "ops/s";
    "trace.overhead_frac", "ratio";
  ]

(* name, unit: end-to-end metrics of one workload only, printed on the
   report lines of the untraced run (and among the traced run's
   per-layer metrics), not in the result object. *)
let workload_only = [ "handshake_p50_us", "us"; "edit_p50_us", "us"; "post_edit_p50_us", "us" ]

let workloads =
  [ "serve_files", Serve_files.run; "ext_calls", Ext_calls.run; "policy_churn", Policy_churn.run ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_files|ext_calls|policy_churn --seed N --seconds S \
     --trace 0|1 [--nproc N] [--rev REV] [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let nproc = ref 0 and rev = ref "unknown" and spans = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); parse rest
    | "--nproc" :: v :: rest -> nproc := Option.value ~default:0 (int_of_string_opt v); parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | "--spans" :: v :: rest -> spans := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some run -> run | None -> usage () in
  let seed, seconds, trace =
    match !seed, !seconds, !trace with
    | Some seed, Some seconds, Some trace when seconds > 0.0 -> seed, seconds, trace
    | _ -> usage ()
  in
  let clock_ns = H.clock_cost_ns () in
  let tally = H.tally () in
  run ~seed ~seconds ~trace tally;
  if trace then begin
    H.set "trace.overhead_frac"
      (match H.get "trace.ops_per_s", H.get "trace.untraced_ops_per_s" with
      | Some traced, Some untraced when untraced > 0.0 -> 1.0 -. (traced /. untraced)
      | _ -> 0.0);
    if !spans <> "" then H.Spans.write !spans;
    Printf.printf "# spans: %d kept, %d dropped%s\n" !H.Spans.len !H.Spans.dropped
      (if !spans = "" then "" else ", written to " ^ !spans);
    Printf.printf "# %-24s %9s %12s %12s\n" "span" "count" "total_ms" "self_ms";
    List.iter
      (fun (name, count, total, self) ->
        Printf.printf "# %-24s %9d %12.3f %12.3f\n" name count (float_of_int total /. 1e6)
          (float_of_int self /. 1e6))
      (H.Spans.summary ())
  end;
  let declared = if trace then per_layer else end_to_end in
  let value name = Option.value ~default:0.0 (H.get name) in
  let print (name, unit) = Printf.printf "# %-30s %16.4f %s\n" name (value name) unit in
  List.iter
    (fun (name, unit) ->
      if (not trace) && H.get name = None then failwith ("metric not measured: " ^ name);
      print (name, unit))
    declared;
  if not trace then List.iter (fun (name, unit) -> if H.get name <> None then print (name, unit)) workload_only;
  let fail_frac = float_of_int tally.H.failed /. float_of_int (max 1 tally.H.attempted) in
  Printf.printf "# %-30s %16.6f ratio (%d of %d failed, %d of them wrong answers)\n" "fail_frac"
    fail_frac tally.H.failed tally.H.attempted tally.H.wrong;
  Option.iter (Printf.printf "# first wrong answer: %s\n") tally.H.first_wrong;
  let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> Exsec_obs.Metrics.json_string k ^ ":" ^ v) fields) ^ "}" in
  let provenance =
    [
      "workload", Exsec_obs.Metrics.json_string !workload;
      "seed", string_of_int seed;
      "seconds", H.json_float seconds;
      "trace", string_of_bool trace;
      "nproc", string_of_int !nproc;
      "recommended_domain_count", string_of_int (Domain.recommended_domain_count ());
      "ocaml", Exsec_obs.Metrics.json_string Sys.ocaml_version;
      "git_rev", Exsec_obs.Metrics.json_string !rev;
      "clock_cost_ns", H.json_float clock_ns;
      "reference_job_ns", H.json_float (H.Speed.mean_ns ());
      "reference_job_nominal_ns", H.json_float H.Speed.nominal_ns;
      "fail_frac", H.json_float fail_frac;
    ]
  in
  print_endline (obj [ "provenance", obj provenance; "inputs", obj (H.inputs ()) ]);
  let correct = tally.H.failed = 0 && tally.H.attempted > 0 in
  let metrics =
    List.map
      (fun (name, unit) ->
        name, obj [ "value", H.json_float (value name); "unit", Exsec_obs.Metrics.json_string unit ])
      declared
  in
  print_endline
    (obj
       [
         "correct", string_of_bool correct;
         "attempted", string_of_int (max 1 tally.H.attempted);
         "failed", string_of_int tally.H.failed;
         "metrics", obj metrics;
       ]);
  exit (if correct then 0 else 1)
