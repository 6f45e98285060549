(* S3: the million-principal control plane.

   The paper's central facility must keep naming and protection fast
   while the deployment underneath it grows by orders of magnitude.
   This workload builds the population the design targets — 10^6
   individuals in 10^4 groups (teams nested in chunks under department
   heads) over a 10^5-node name-space tree — and measures the control
   plane's three scaling claims:

   - bulk import: a batched population ([Principal.Db.batch], one
     deferred generation bump) vs the same mutations unbatched (one
     bump — one fleet-wide invalidation of compiled ACLs, certificates
     and handles — per mutation);
   - snapshot maintenance: a single-edit incremental refresh and a
     10^4-edit churn refresh vs the full from-scratch rebuild the seed
     shipped with ([Principal.Db.full_snapshot]) — refresh cost must
     scale with the delta, not the population;
   - steady-state latency at scale: checked resolution over the big
     tree, reference-monitor decide, the compiled-ACL hot check
     (whose zero-allocation pin must not move), and ACL compilation
     against group entries with real closures.

   s3 runs the full scale (takes a few minutes and a few GB); s3q is
   the CI smoke at ~1/50th scale, exercising every code path with the
   same shape. *)

open Exsec_core
open Exsec_workload

let header title = Format.printf "@.=== %s ===@." title

type scale = {
  label : string;
  individuals : int;
  groups : int;  (* teams; chunks of 10 nest under the chunk head *)
  memberships : int;  (* direct team memberships per individual *)
  depth : int;  (* name-space tree: interior depth ... *)
  fanout : int;  (* ... and children per interior node *)
  churn : int;  (* edits in the churn-refresh measurement *)
}

let full =
  {
    label = "full (10^6 principals, 10^4 groups, 10^5 nodes)";
    individuals = 1_000_000;
    groups = 10_000;
    memberships = 3;
    depth = 4;
    fanout = 10;  (* 10 + 10^2 + ... + 10^5 nodes ~ 1.1e5, leaves at 10^5 *)
    churn = 10_000;
  }

let smoke =
  {
    label = "smoke (2*10^4 principals, 200 groups, ~2000 nodes)";
    individuals = 20_000;
    groups = 200;
    memberships = 3;
    depth = 2;
    fanout = 12;
    churn = 200;
  }

let team i = Principal.group (Printf.sprintf "g%d" i)
let person u = Principal.individual (Printf.sprintf "u%d" u)

let ms_of_ns ns = ns /. 1.0e6

let time_ms f =
  let start = Timing.now_ns () in
  let result = f () in
  result, ms_of_ns (Timing.now_ns () -. start)

let median_ms samples =
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

(* {1 Population import} *)

(* Register the group forest and pour the membership stream in.
   Individuals are registered on the fly by [add_member]; every chunk
   of 10 teams nests under the chunk's head team, so closures are real
   (transitive) without any group dominating the population. *)
let populate scale db =
  let rng = Prng.create ~seed:42 in
  for i = 0 to scale.groups - 1 do
    Principal.Db.add_group db (team i);
    if i mod 10 <> 0 then
      Principal.Db.add_member db (team (i / 10 * 10)) (Principal.Grp (team i))
  done;
  for u = 0 to scale.individuals - 1 do
    let member = Principal.Ind (person u) in
    for _ = 1 to scale.memberships do
      Principal.Db.add_member db (team (Prng.int rng scale.groups)) member
    done
  done

let import scale ~batched =
  let db = Principal.Db.create () in
  let before = Principal.Db.generation db in
  let (), elapsed =
    time_ms (fun () ->
        if batched then Principal.Db.batch db (fun () -> populate scale db)
        else populate scale db)
  in
  db, elapsed, Principal.Db.generation db - before

(* {1 Snapshot maintenance} *)

(* Flip one direct membership, guaranteeing the generation moves (an
   add that happens to be a duplicate publishes nothing and would time
   the cached-snapshot path by mistake). *)
let one_edit db rng scale =
  let before = Principal.Db.generation db in
  let rec flip attempts =
    if attempts > 100 then failwith "could not find an effective edit";
    let grp = team (Prng.int rng scale.groups) in
    let member = Principal.Ind (person (Prng.int rng scale.individuals)) in
    if Prng.bool rng then Principal.Db.remove_member db grp member
    else Principal.Db.add_member db grp member;
    if Principal.Db.generation db = before && not (Principal.Db.in_batch db) then
      flip (attempts + 1)
  in
  flip 0

let snapshot_bench scale db =
  ignore (Principal.Db.snapshot db);
  let full_samples =
    List.init 3 (fun _ -> snd (time_ms (fun () -> ignore (Principal.Db.full_snapshot db))))
  in
  let full_ms = median_ms full_samples in
  let rng = Prng.create ~seed:7 in
  let single_samples =
    List.init 7 (fun _ ->
        one_edit db rng scale;
        let snap, elapsed = time_ms (fun () -> Principal.Db.snapshot db) in
        assert (Principal.Db.Snapshot.generation snap = Principal.Db.generation db);
        elapsed)
  in
  let single_ms = median_ms single_samples in
  let churn_ms =
    Principal.Db.batch db (fun () ->
        for _ = 1 to scale.churn do
          one_edit db rng scale
        done);
    snd (time_ms (fun () -> ignore (Principal.Db.snapshot db)))
  in
  full_ms, single_ms, churn_ms

(* {1 The big tree and steady-state latency} *)

let everyone_meta ~owner klass =
  Meta.make ~owner
    ~acl:
      (Acl.of_entries
         [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ])
    klass

(* Build the tree through the O(1) parent-relative inserts, collecting
   the leaf paths for the resolution sweep. *)
let build_tree scale ~owner klass =
  let ns = Namespace.create ~root_meta:(everyone_meta ~owner klass) () in
  let leaves = ref [] in
  let rec grow parent level =
    for i = 0 to scale.fanout - 1 do
      if level = scale.depth then begin
        match
          Namespace.add_leaf_at ns parent (Printf.sprintf "p%d" i)
            ~meta:(everyone_meta ~owner klass) 0
        with
        | Ok node -> leaves := Namespace.path node :: !leaves
        | Error _ -> failwith "bulk leaf insert refused"
      end
      else
        match
          Namespace.add_dir_at ns parent (Printf.sprintf "d%d" i)
            ~meta:(everyone_meta ~owner klass)
        with
        | Ok node -> grow node (level + 1)
        | Error _ -> failwith "bulk dir insert refused"
    done
  in
  let (), build_ms = time_ms (fun () -> grow (Namespace.root ns) 0) in
  ns, Array.of_list !leaves, build_ms

let latency_bench scale db ns leaves bottom =
  let subject = Subject.make (person 0) bottom in
  let monitor = Reference_monitor.create db in
  let resolver = Resolver.create monitor ns in
  let rng = Prng.create ~seed:11 in
  let resolve_ns =
    Timing.ns_per_op (fun () ->
        ignore
          (Resolver.resolve resolver ~subject ~mode:Access_mode.Read
             (Prng.choose rng leaves)))
  in
  (* An ACL with teeth at this scale: one chunk-head group entry whose
     closure spans ten teams, one direct team, one everyone tier. *)
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Group (team 0)) [ Access_mode.Read; Access_mode.Write ];
        Acl.deny (Acl.Group (team (scale.groups / 2))) [ Access_mode.Write ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ]
  in
  let meta = Meta.make ~owner:(person 0) ~acl bottom in
  let decide_ns =
    Timing.ns_per_op (fun () ->
        ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
  in
  let compiled = Meta.compiled_acl meta ~db in
  let compiled_check_ns =
    Timing.ns_per_op (fun () ->
        ignore (Acl_compiled.check compiled ~subject:(person 0) ~mode:Access_mode.Read))
  in
  let compile_ns =
    Timing.ns_per_op ~warmup:2 ~batch:5 ~batches:5 (fun () ->
        ignore (Acl_compiled.compile ~db acl))
  in
  resolve_ns, decide_ns, compiled_check_ns, compile_ns

(* {1 Driver} *)

let run scale =
  header (Printf.sprintf "S3  Million-principal control plane — %s" scale.label);
  let mutations = (scale.individuals * scale.memberships) + scale.groups in
  Format.printf "import (%d individuals x %d teams, ~%d mutations):@."
    scale.individuals scale.memberships mutations;
  (* Bind only the metrics: keeping the unbatched database live would
     tax the batched run's GC with an extra resident population. *)
  let un_ms, un_bumps =
    let _, ms, bumps = import scale ~batched:false in
    ms, bumps
  in
  Format.printf "  unbatched  %8.0f ms   %9d generation bumps@." un_ms un_bumps;
  let db, b_ms, b_bumps = import scale ~batched:true in
  Format.printf "  batched    %8.0f ms   %9d generation bump%s@." b_ms b_bumps
    (if b_bumps = 1 then "" else "s (EXPECTED 1!)");
  let full_ms, single_ms, churn_ms = snapshot_bench scale db in
  Format.printf "snapshot refresh:@.";
  Format.printf "  full rebuild          %10.2f ms@." full_ms;
  Format.printf "  single-edit delta     %10.2f ms   (%.0fx faster)@." single_ms
    (full_ms /. Float.max single_ms 0.001);
  Format.printf "  %d-edit batched delta %8.2f ms@." scale.churn churn_ms;
  let owner = person 0 in
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [ "c" ] in
  let bottom = Security_class.bottom hierarchy universe in
  let ns, leaves, tree_ms = build_tree scale ~owner bottom in
  Format.printf "name space: %d nodes built in %.0f ms (parent-relative inserts)@."
    (Namespace.size ns) tree_ms;
  let resolve_ns, decide_ns, compiled_check_ns, compile_ns =
    latency_bench scale db ns leaves bottom
  in
  Format.printf "steady-state latency at this population:@.";
  Format.printf "  checked resolve (depth %d)   %a@." (scale.depth + 1) Timing.pp_ns
    resolve_ns;
  Format.printf "  monitor decide               %a@." Timing.pp_ns decide_ns;
  Format.printf "  compiled ACL check           %a@." Timing.pp_ns compiled_check_ns;
  Format.printf "  ACL compile (group closures) %a@." Timing.pp_ns compile_ns;
  Format.printf
    "expected shape: batched import publishes once; delta refresh costs@.";
  Format.printf
    "scale with the edit, not the population; check latency is flat.@."

let s3 () = run full
let s3q () = run smoke
