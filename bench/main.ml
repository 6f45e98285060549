(* Benchmark driver: regenerates every table (T1-T4) and figure
   (F1-F5) of EXPERIMENTS.md, plus the Bechamel microbenchmark suite.

     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- t3 f1        run selected experiments
     dune exec bench/main.exe -- --list       list experiment ids
     dune exec bench/main.exe -- --bechamel   microbenchmarks only
     dune exec bench/main.exe -- --quick      tables only (no timing) *)

let experiments =
  [
    "t1", "applet file-sharing matrix (paper 2.2)", Tables.t1;
    "t2", "ThreadMurder containment (paper 1.2)", Tables.t2;
    "t3", "policy expressiveness across models (paper 1.2, 2)", Tables.t3;
    "t4", "three prongs vs central monitor, fault injection (paper 1.2)", Tables.t4;
    "f1", "check cost vs ACL length and policy layers", Figures.f1;
    "f2", "resolution cost vs path depth, checked vs raw", Figures.f2;
    "f3", "class-indexed handler selection vs variants", Figures.f3;
    "f4", "illegal flows admitted, DAC-only vs DAC+MAC", Figures.f4;
    "f5", "per-call import checks and revocation", Figures.f5;
    "f6", "name-space scale: lookup/insert vs population and directory width", Figures.f6;
    "a1", "ablation: audit-record overhead", Ablations.a1;
    "a2", "ablation: per-layer cost and flow violations", Ablations.a2;
    "a3", "ablation: nested-group membership depth", Ablations.a3;
    "a4", "ablation: policy-file parse/build throughput", Ablations.a4;
    "a5", "ablation: quota charging overhead", Ablations.a5;
    "a7", "ablation: static analysis; certified vs per-call dispatch", Ablations.a7;
    "a8", "ablation: compiled ACL path; sharded audit pipeline", Ablations.a8;
    "a9", "ablation: metrics/tracing overhead, instrumented vs noop", Ablations.a9;
    "a10", "ablation: capability-handle dispatch vs certified/checked", Ablations.a10;
    "a11", "ablation: analyze-then-link vs lazy certification (chain proofs)", Ablations.a11;
    "a12", "ablation: certificate survival under unrelated churn, scoped vs generation-exact", Ablations.a12;
    "s1", "decide throughput vs domains, one shared monitor", Scaling.s1;
    "s1q", "s1 smoke: 1-2 domains, short streams", Scaling.s1q;
    "s2", "end-to-end served RPS vs client domains (loopback)", Scaling.s2;
    "s2q", "s2 smoke: 1-2 clients, short", Scaling.s2q;
    "s3", "million-principal control plane: import, snapshot delta, latency", Population.s3;
    "s3q", "s3 smoke: reduced population, same shape", Population.s3q;
  ]

let list_experiments () =
  Format.printf "available experiments:@.";
  List.iter (fun (id, what, _) -> Format.printf "  %-4s %s@." id what) experiments;
  Format.printf "  %-4s %s@." "--bechamel" "Bechamel microbenchmark suite"

let run_one id =
  match List.find_opt (fun (name, _, _) -> String.equal name id) experiments with
  | Some (_, _, run) -> (
    (* A refused scenario setup step names itself instead of tearing
       the whole driver down mid-sweep. *)
    try run ()
    with Exsec_workload.Scenario.Step_failed _ as failure ->
      Format.printf "experiment %s aborted, setup step refused: %s@." id
        (Exsec_workload.Scenario.failure_to_string failure))
  | None ->
    Format.printf "unknown experiment %S@." id;
    list_experiments ();
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] -> list_experiments ()
  | [ "--bechamel" ] -> Bech.run ()
  | [ "--quick" ] -> List.iter run_one [ "t1"; "t2"; "t3"; "t4"; "f4" ]
  | [] ->
    List.iter (fun (id, _, _) -> run_one id) experiments;
    Bech.run ()
  | ids -> List.iter run_one ids
