(* S1: multi-domain decide throughput.

   Reader domains hammer one shared monitor with seeded check-only
   streams (hot working set, no revocations) at 1/2/4/8 domains.  The
   decision path takes no lock: the compiled-ACL slot on each object
   and the snapshot-id memo on each subject are single pointers, read
   without synchronization.  So the rate should scale with the cores
   the host really has and flatten once domains outnumber them. *)

open Exsec_core
open Exsec_workload

let header title = Format.printf "@.=== %s ===@." title

let make_env () =
  let rng = Prng.create ~seed:97 in
  Opstream.environment rng ~individuals:16 ~groups:4 ~subjects:12 ~objects:48
    ~levels:3 ~categories:3

(* Aggregate decides per second with [domains] domains each replaying
   [ops_per_domain] operations of its own pregenerated stream. *)
let throughput env monitor ~domains ~ops_per_domain =
  let streams =
    Array.init domains (fun i ->
        let rng = Prng.create ~seed:(1000 * (i + 1)) in
        Array.of_list (Opstream.generate rng env ~steps:256 ~mutation_fraction:0.0))
  in
  let run i () =
    let ops = streams.(i) in
    let population = Array.length ops in
    for k = 0 to ops_per_domain - 1 do
      match ops.(k mod population) with
      | Opstream.Check { subject; object_; mode } ->
        ignore
          (Reference_monitor.decide monitor
             ~subject:env.Opstream.subjects.(subject)
             ~meta:env.Opstream.metas.(object_)
             ~mode)
      | _ -> ()
    done
  in
  (* One warm pass on the spawning domain takes first-touch costs
     (snapshot build, ACL compiles) off the clock. *)
  run 0 ();
  let start = Timing.now_ns () in
  let handles = List.init domains (fun i -> Domain.spawn (run i)) in
  List.iter Domain.join handles;
  let elapsed_s = (Timing.now_ns () -. start) /. 1e9 in
  float_of_int (domains * ops_per_domain) /. elapsed_s

let series ~domain_counts ~ops_per_domain =
  let env = make_env () in
  let monitor = Reference_monitor.create env.Opstream.db in
  Format.printf "runtime-recognized cores: %d@." (Domain.recommended_domain_count ());
  Format.printf "%-8s %-15s %s@." "domains" "decide" "vs 1 domain";
  let base = ref 0.0 in
  List.iter
    (fun domains ->
      let rate = throughput env monitor ~domains ~ops_per_domain in
      if !base = 0.0 then base := rate;
      Format.printf "%-8d %8.2f Mops/s %10.2fx@." domains (rate /. 1e6) (rate /. !base))
    domain_counts;
  Format.printf
    "expected shape: the rate grows with domains up to the core count (no lock on@.";
  Format.printf "the decision path) and flattens beyond it@."

let s1 () =
  header "S1  Decide throughput vs domains, one shared monitor";
  series ~domain_counts:[ 1; 2; 4; 8 ] ~ops_per_domain:100_000

let s1q () =
  header "S1q Decide throughput smoke (1-2 domains, short)";
  series ~domain_counts:[ 1; 2 ] ~ops_per_domain:20_000

(* S2: end-to-end served RPS over the loopback transport.

   Where S1 measures the bare monitor from inside the process, S2
   measures the whole request path a real client sees: wire
   encode/decode, transport, authentication, the per-connection
   subject, checked resolution and the monitor, per-request metrics.
   Closed-loop clients (one request in flight each) at 1/2/4/8 client
   domains give the sustained ceiling; one open-loop row at a fixed
   target shows schedule-keeping (late counts) below that ceiling.

   Every client authenticates as the scenario user (level local, all
   four categories) and reads /fs/user-data — the same checked path
   the A-series ablations cost from inside, now priced end to end. *)

module Serve = Exsec_serve

let user_credentials =
  {
    Serve.Wire.principal = "user";
    secret = None;
    level = Some "local";
    categories = Scenario.categories;
  }

let serve_world ~workers =
  let scenario =
    match Scenario.build_checked () with
    | Ok scenario -> scenario
    | Error label -> failwith ("S2 scenario setup refused: " ^ label)
  in
  let endpoint = Serve.Transport.Loopback.create () in
  let server =
    Serve.Server.create ~workers scenario.Scenario.kernel
      (Serve.Transport.Loopback.transport endpoint)
  in
  Serve.Server.start server;
  (endpoint, server)

let read_spec ~clients ~requests_per_client =
  {
    Exsec_workload.Loadgen.clients;
    requests_per_client;
    credentials = (fun _ -> user_credentials);
    op = (fun ~client:_ ~seq:_ -> Serve.Wire.Read { path = "/fs/user-data" });
  }

let serve_series ~client_counts ~requests_per_client ~open_loop_target =
  let was_enabled = Exsec_obs.Metrics.enabled () in
  Exsec_obs.Metrics.set_enabled true;
  Format.printf "runtime-recognized cores: %d@." (Domain.recommended_domain_count ());
  Format.printf "%-8s %-12s %-10s %-10s %-10s@." "clients" "RPS" "p50(us)"
    "p95(us)" "p99(us)";
  List.iter
    (fun clients ->
      (* A fresh world per row: no cross-row cache or quota state, and
         workers >= clients so no connection waits in the accept queue. *)
      let endpoint, server = serve_world ~workers:(max clients 1) in
      let spec = read_spec ~clients ~requests_per_client in
      (match
         Exsec_workload.Loadgen.closed_loop
           ~connect:(fun () -> Serve.Transport.Loopback.connect endpoint)
           spec
       with
      | Error reason -> Format.printf "%-8d FAILED: %s@." clients reason
      | Ok o ->
        Format.printf "%-8d %8.0f     %8.1f %8.1f %8.1f@." clients
          o.Exsec_workload.Loadgen.rps (o.p50_ns /. 1e3) (o.p95_ns /. 1e3)
          (o.p99_ns /. 1e3);
        if o.ok <> o.sent then
          Format.printf "         (non-ok responses: busy=%d errored=%d)@." o.busy
            o.errored);
      Serve.Server.stop server)
    client_counts;
  let open_clients = 4 in
  let endpoint, server = serve_world ~workers:open_clients in
  (match
     Exsec_workload.Loadgen.open_loop
       ~connect:(fun () -> Serve.Transport.Loopback.connect endpoint)
       ~target_rps:open_loop_target
       (read_spec ~clients:open_clients ~requests_per_client)
   with
  | Error reason -> Format.printf "open-loop FAILED: %s@." reason
  | Ok o ->
    Format.printf
      "open-loop target %.0f rps, %d clients: achieved %.0f rps, late %d/%d, \
       p99 %.1fus@."
      open_loop_target open_clients o.Exsec_workload.Loadgen.rps o.late o.sent
      (o.p99_ns /. 1e3));
  Serve.Server.stop server;
  let snap = Exsec_obs.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap.Exsec_obs.Metrics.counters with
    | Some v -> v
    | None -> 0
  in
  let requests = counter "serve.requests" and responses = counter "serve.responses" in
  Format.printf "server-side conservation: serve.requests=%d serve.responses=%d (%s)@."
    requests responses
    (if requests = responses then "exact" else "VIOLATED");
  Exsec_obs.Metrics.set_enabled was_enabled

let s2 () =
  header "S2  End-to-end served RPS vs client domains (loopback)";
  serve_series ~client_counts:[ 1; 2; 4; 8 ] ~requests_per_client:20_000
    ~open_loop_target:50_000.

let s2q () =
  header "S2q Served RPS smoke (1-2 clients, short)";
  serve_series ~client_counts:[ 1; 2 ] ~requests_per_client:2_000
    ~open_loop_target:10_000.
