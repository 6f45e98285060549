(* S3: the million-principal control plane.

   The paper's central facility must keep naming and protection fast
   while the deployment underneath it grows by orders of magnitude.
   This workload builds the population the design targets — 10^6
   individuals in 10^4 groups (teams nested in chunks under department
   heads) over a 10^5-node name-space tree — and measures the control
   plane's three scaling claims:

   - bulk import: a batched population ([Principal.Db.batch], one
     publication at the batch's exit) vs the same mutations unbatched
     (one published snapshot and generation bump — one fleet-wide
     invalidation of compiled ACLs, certificates and handles — per
     mutation);
   - snapshot publication: the writer builds and publishes the next
     snapshot inside each edit, so each row times the edit together
     with the [Db.snapshot] after it (now one load) and counts its
     words: a single edit, registering one individual into one team,
     and a 10^4-edit batch, against the full from-scratch rebuild
     ([Principal.Db.full_snapshot], what the first publication does) —
     publication cost must scale with the edit, not the population,
     registrations included;
   - steady-state latency at scale: checked resolution over the big
     tree, reference-monitor decide, the compiled-ACL hot check
     (whose zero-allocation pin must not move), and ACL compilation
     against group entries with real closures;
   - decide under churn: one unrelated single-member edit every 1,000
     decides; the edit has published, so the first decide after it
     pays no refresh.

   Two checks make the run fail ([Scaling.Failed]) rather than print a
   wrong shape: the batched import must publish exactly one generation
   bump, and after the 10^4-edit batch every individual's published
   row must equal the full rebuild's, by content.

   s3 runs the full scale (under a minute and about 600 MB on a 2-core
   host); s3q is the CI smoke at ~1/50th scale, exercising every code
   path with the same shape. *)

open Exsec_core
open Exsec_workload

let header = Timing.header

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

let median samples =
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

(* Every word [f] allocates, on either heap: population-sized arrays
   go straight to the major heap, which [Gc.minor_words] misses. *)
let allocated_words f =
  let minor_before = Gc.minor_words () in
  let _, promoted_before, major_before = Gc.counters () in
  let result = f () in
  let minor_after = Gc.minor_words () in
  let _, promoted_after, major_after = Gc.counters () in
  ( result,
    minor_after -. minor_before
    +. (major_after -. major_before)
    -. (promoted_after -. promoted_before) )

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

(* {1 Snapshot publication} *)

(* An edit that flips one direct membership, unapplied: it is
   effective, so applying it publishes (a duplicate add or an absent
   remove publishes nothing and would time nothing).  Picked outside
   any timing, so a timed row holds the edit alone.  Person 0, the
   subject of the latency rows, is never edited. *)
let pick_edit db rng scale =
  let rec pick attempts =
    if attempts > 100 then failwith "could not find an effective edit";
    let grp = team (Prng.int rng scale.groups) in
    let member = Principal.Ind (person (1 + Prng.int rng (scale.individuals - 1))) in
    let remove = Prng.bool rng in
    if remove = List.mem grp (Principal.Db.direct_groups db member) then
      if remove then fun () -> Principal.Db.remove_member db grp member
      else fun () -> Principal.Db.add_member db grp member
    else pick (attempts + 1)
  in
  pick 0

let one_edit db rng scale = pick_edit db rng scale ()

(* Time and count the words of [edit] together with the [Db.snapshot]
   after it, which must be the snapshot the edit published. *)
let published db edit =
  let before = Principal.Db.generation db in
  let (snap, elapsed), words =
    allocated_words (fun () ->
        time_ms (fun () ->
            edit ();
            Principal.Db.snapshot db))
  in
  assert (Principal.Db.Snapshot.generation snap = before + 1);
  elapsed, words

let median_of samples = median (List.map fst samples), median (List.map snd samples)

let snapshot_bench scale db =
  let full_samples =
    List.init 3 (fun _ -> snd (time_ms (fun () -> ignore (Principal.Db.full_snapshot db))))
  in
  let full_ms = median full_samples in
  let rng = Prng.create ~seed:7 in
  let single = median_of (List.init 7 (fun _ -> published db (pick_edit db rng scale))) in
  (* Register one newcomer into one team: the newcomer takes the next
     id, so the publication appends a row and patches the team's
     members, like a single edit. *)
  let register =
    median_of
      (List.init 7 (fun k ->
           let grp = team (Prng.int rng scale.groups) in
           let newcomer = Principal.Ind (Principal.individual (Printf.sprintf "newcomer%d" k)) in
           published db (fun () -> Principal.Db.add_member db grp newcomer)))
  in
  let edits = Array.init scale.churn (fun _ -> pick_edit db rng scale) in
  let churn =
    published db (fun () -> Principal.Db.batch db (fun () -> Array.iter (fun edit -> edit ()) edits))
  in
  full_ms, single, register, churn

(* How many individuals' published rows differ, by content, from the
   full rebuild's, and how many were compared. *)
let row_mismatches db =
  let incremental = Principal.Db.snapshot db in
  let full = Principal.Db.full_snapshot db in
  let count = Principal.Db.Snapshot.individual_count full in
  let row snap individual_id =
    (Principal.Db.Snapshot.row snap ~individual_id :> int array)
  in
  let differ = ref (abs (count - Principal.Db.Snapshot.individual_count incremental)) in
  for i = 0 to count - 1 do
    if row incremental i <> row full i then incr differ
  done;
  !differ, count

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

(* Decide under churn: [edits] rounds of one single-member edit that
   leaves the subject's row alone, then 1,000 individually timed
   decides.  The edit has published its snapshot, so the first decide
   of a round pays no refresh.  Returns (p50, p99) over every decide
   and over the first ones. *)
let churn_decides scale db monitor ~subject ~meta =
  let edits = 200 and per_edit = 1_000 in
  let rng = Prng.create ~seed:13 in
  let all = Array.make (edits * per_edit) 0. in
  let first = Array.make edits 0. in
  for e = 0 to edits - 1 do
    one_edit db rng scale;
    for k = 0 to per_edit - 1 do
      let start = Timing.now_ns () in
      ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read);
      let elapsed = Timing.now_ns () -. start in
      all.((e * per_edit) + k) <- elapsed;
      if k = 0 then first.(e) <- elapsed
    done
  done;
  let percentiles samples =
    Array.sort Float.compare samples;
    let at q = samples.(int_of_float (q *. float_of_int (Array.length samples - 1))) in
    at 0.5, at 0.99
  in
  percentiles all, percentiles first

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
  let snapshot = Principal.Db.snapshot db in
  let compiled_check_ns =
    Timing.ns_per_op (fun () ->
        ignore
          (Acl_compiled.check compiled ~snapshot ~subject:(person 0) ~mode:Access_mode.Read))
  in
  let compile_ns =
    Timing.ns_per_op ~warmup:2 ~batch:5 ~batches:5 (fun () ->
        ignore (Acl_compiled.compile ~db acl))
  in
  resolve_ns, decide_ns, compiled_check_ns, compile_ns, churn_decides scale db monitor ~subject ~meta

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
    (if b_bumps = 1 then "" else "s");
  if b_bumps <> 1 then
    raise
      (Scaling.Failed
         (Printf.sprintf "s3: the batched import published %d generation bumps, not 1" b_bumps));
  let full_ms, single, register, churn = snapshot_bench scale db in
  Format.printf "snapshot publication (the edit with the Db.snapshot after it):@.";
  Format.printf "  full rebuild          %10.4f ms@." full_ms;
  let row label (ms, words) =
    Format.printf "  %-21s %10.4f ms   (%.0fx faster)   %.0f words@." label ms
      (full_ms /. Float.max ms 0.001)
      words
  in
  row "single edit" single;
  row "register + edit" register;
  row (Printf.sprintf "%d-edit batch" scale.churn) churn;
  let differ, compared = row_mismatches db in
  Format.printf "  published = full rebuild: %d rows compared, %d differ@." compared differ;
  if differ > 0 then
    raise
      (Scaling.Failed
         (Printf.sprintf "s3: %d of %d published rows differ from the full rebuild" differ
            compared));
  let owner = person 0 in
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [ "c" ] in
  let bottom = Security_class.bottom hierarchy universe in
  let ns, leaves, tree_ms = build_tree scale ~owner bottom in
  Format.printf "name space: %d nodes built in %.0f ms (parent-relative inserts)@."
    (Namespace.size ns) tree_ms;
  let resolve_ns, decide_ns, compiled_check_ns, compile_ns, ((p50, p99), (first50, first99)) =
    latency_bench scale db ns leaves bottom
  in
  Format.printf "steady-state latency at this population:@.";
  Format.printf "  checked resolve (depth %d)   %a@." (scale.depth + 1) Timing.pp_ns
    resolve_ns;
  Format.printf "  monitor decide               %a@." Timing.pp_ns decide_ns;
  Format.printf "  compiled ACL check           %a@." Timing.pp_ns compiled_check_ns;
  Format.printf "  ACL compile (group closures) %a@." Timing.pp_ns compile_ns;
  Format.printf "decide under churn (one unrelated edit per 1,000 decides):@.";
  Format.printf "  every decide        p50 %a   p99 %a@." Timing.pp_ns p50 Timing.pp_ns p99;
  Format.printf "  first after an edit p50 %a   p99 %a@." Timing.pp_ns first50 Timing.pp_ns
    first99;
  Format.printf
    "expected shape: batched import publishes once; a publication costs@.";
  Format.printf
    "scale with the edit, not the population; check latency is flat.@."

let s3 () = run full
let s3q () = run smoke
