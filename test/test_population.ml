(* The million-principal control plane: batched mutations and
   incremental snapshot maintenance.

   Three contracts are held here.  (1) A [Principal.Db.batch] of
   mutations is observationally equivalent to the same mutations
   applied sequentially — final membership, groups_of, snapshot
   contents — except that it publishes under exactly one generation
   bump.  (2) The incrementally maintained snapshot (delta rebuild
   from dirty groups over the reverse-membership index) is held to the
   seed full-rebuild semantics by a twin-path differential oracle over
   randomized membership/ACL churn, >= 10k probes.  (3) Readers in
   other domains may probe snapshots while a batch is in flight and
   observe only published states. *)

open Exsec_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Fixed pools, drawn from by index so QCheck shrinking stays
   meaningful.  Group nesting only points from higher index to lower,
   so generated scripts are cycle-free by construction (the cycle
   validator is exercised separately below). *)
let ind_names = [| "u0"; "u1"; "u2"; "u3"; "u4"; "u5"; "u6"; "u7" |]
let grp_names = [| "g0"; "g1"; "g2"; "g3"; "g4"; "g5" |]

let inds = Array.map Principal.individual ind_names
let grps = Array.map Principal.group grp_names

type op =
  | Add of int * int  (* group index, member code *)
  | Remove of int * int

(* Member codes 0..7 are individuals; 8.. pick a strictly lower-index
   group than the target (or an individual when the target is g0). *)
let member_of ~g code =
  let n = code mod (Array.length inds + Array.length grps) in
  if n < Array.length inds then Principal.Ind inds.(n)
  else begin
    let nested = (n - Array.length inds) mod (Array.length grps) in
    if nested < g then Principal.Grp grps.(nested) else Principal.Ind inds.(n mod Array.length inds)
  end

let apply db = function
  | Add (g, code) ->
    let g = g mod Array.length grps in
    Principal.Db.add_member db grps.(g) (member_of ~g code)
  | Remove (g, code) ->
    let g = g mod Array.length grps in
    Principal.Db.remove_member db grps.(g) (member_of ~g code)

let fresh_db () =
  let db = Principal.Db.create () in
  Array.iter (Principal.Db.add_individual db) inds;
  Array.iter (Principal.Db.add_group db) grps;
  db

(* Full observational fingerprint of a database: the membership matrix
   over every (individual, group) pair, computed from the live lists
   (the reference semantics), plus groups_of. *)
let membership_matrix db =
  Array.map
    (fun ind -> Array.map (fun grp -> Principal.Db.is_member db ind grp) grps)
    inds

let snapshot_matrix snap =
  Array.map
    (fun ind ->
      let id = Principal.Db.Snapshot.individual_id snap ind in
      Array.map
        (fun grp ->
          let gid = Principal.Db.Snapshot.group_id snap grp in
          Principal.Db.Snapshot.is_member snap ~individual_id:id ~group_id:gid)
        grps)
    inds

let arb_ops =
  QCheck.(
    small_list
      (map
         (fun (add, g, code) -> if add then Add (g, code) else Remove (g, code))
         (triple bool small_nat small_nat)))

(* {1 Batch = sequential, under exactly one bump} *)

let prop_batch_equiv_sequential =
  QCheck.Test.make ~name:"batch = sequential mutations, one generation bump"
    ~count:200 arb_ops (fun ops ->
      let seq_db = fresh_db () in
      let batch_db = fresh_db () in
      let g0 = Principal.Db.generation seq_db in
      List.iter (apply seq_db) ops;
      let seq_bumps = Principal.Db.generation seq_db - g0 in
      Principal.Db.batch batch_db (fun () ->
          List.iter (apply batch_db) ops;
          (* Publication is deferred: nothing lands while inside. *)
          if Principal.Db.generation batch_db <> g0 then
            QCheck.Test.fail_report "generation moved inside the batch");
      let batch_bumps = Principal.Db.generation batch_db - g0 in
      (* Exactly one bump iff the script changed anything at all. *)
      if batch_bumps <> (if seq_bumps > 0 then 1 else 0) then
        QCheck.Test.fail_reportf "expected one bump for %d mutations, got %d"
          seq_bumps batch_bumps;
      (* Same final membership, through the live walk ... *)
      if membership_matrix seq_db <> membership_matrix batch_db then
        QCheck.Test.fail_report "membership diverged";
      (* ... through groups_of ... *)
      Array.iter
        (fun ind ->
          if
            List.map Principal.group_name (Principal.Db.groups_of seq_db ind)
            <> List.map Principal.group_name (Principal.Db.groups_of batch_db ind)
          then QCheck.Test.fail_report "groups_of diverged")
        inds;
      (* ... and through the published snapshots. *)
      if
        snapshot_matrix (Principal.Db.snapshot seq_db)
        <> snapshot_matrix (Principal.Db.snapshot batch_db)
      then QCheck.Test.fail_report "snapshot contents diverged";
      true)

let test_batch_empty_and_idempotent () =
  let db = fresh_db () in
  let g0 = Principal.Db.generation db in
  Principal.Db.batch db (fun () -> ());
  check_int "empty batch publishes nothing" g0 (Principal.Db.generation db);
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0));
  let g1 = Principal.Db.generation db in
  Principal.Db.batch db (fun () ->
      (* Re-adding a present member is not a change; no bump owed. *)
      Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0)));
  check_int "idempotent batch publishes nothing" g1 (Principal.Db.generation db)

let test_batch_nested_and_exceptional () =
  let db = fresh_db () in
  let g0 = Principal.Db.generation db in
  Principal.Db.batch db (fun () ->
      Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0));
      Principal.Db.batch db (fun () ->
          Principal.Db.add_member db grps.(1) (Principal.Ind inds.(1)));
      check_int "inner batch defers to the outermost" g0 (Principal.Db.generation db));
  check_int "nested batches publish once" (g0 + 1) (Principal.Db.generation db);
  (* A raising batch still publishes what it applied — exactly once —
     so no cached decision can outlive the partial mutations. *)
  let g1 = Principal.Db.generation db in
  (match
     Principal.Db.batch db (fun () ->
         Principal.Db.add_member db grps.(2) (Principal.Ind inds.(2));
         failwith "boom")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  check_int "raising batch publishes applied mutations once" (g1 + 1)
    (Principal.Db.generation db);
  check "mutation before the raise landed" true
    (Principal.Db.is_member db inds.(2) grps.(2));
  check "not left in a batch" false (Principal.Db.in_batch db)

let test_readers_see_published_state_during_batch () =
  let db = fresh_db () in
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0));
  let before = Principal.Db.snapshot db in
  Principal.Db.batch db (fun () ->
      Principal.Db.add_member db grps.(0) (Principal.Ind inds.(1));
      (* The snapshot path validates by generation, and the batch has
         not published: a reader inside the window still gets the
         pre-batch view. *)
      let during = Principal.Db.snapshot db in
      check "snapshot unchanged inside batch" true (during == before);
      check "groups_of reads the published state" true
        (Principal.Db.groups_of db inds.(1) = []));
  let after = Principal.Db.snapshot db in
  check "published at batch exit" true
    (Principal.Db.Snapshot.is_member after
       ~individual_id:(Principal.Db.Snapshot.individual_id after inds.(1))
       ~group_id:(Principal.Db.Snapshot.group_id after grps.(0)))

let test_stale_slot_batch_isolation () =
  (* The cached slot is STALE when the batch starts (churn landed
     after the last build).  A mid-batch [snapshot] call must not
     rebuild from the half-applied live lists — that build would be
     stamped with the unmoved pre-batch generation and validate as
     current, exposing partial batch state, until the exit bump.  The
     epoch guard serves the stale incumbent instead. *)
  let db = fresh_db () in
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0));
  let stale = Principal.Db.snapshot db in
  Principal.Db.add_member db grps.(1) (Principal.Ind inds.(1));
  check "slot is stale at batch entry" true
    (Principal.Db.Snapshot.generation stale < Principal.Db.generation db);
  Principal.Db.batch db (fun () ->
      Principal.Db.add_member db grps.(2) (Principal.Ind inds.(2));
      let during = Principal.Db.snapshot db in
      check "mid-batch reader is served the stale incumbent" true
        (during == stale);
      check "no generation-valid snapshot exists mid-batch" true
        (Principal.Db.Snapshot.generation during < Principal.Db.generation db);
      check "batch write invisible through the snapshot" false
        (Principal.Db.Snapshot.is_member during
           ~individual_id:(Principal.Db.Snapshot.individual_id during inds.(2))
           ~group_id:(Principal.Db.Snapshot.group_id during grps.(2))));
  let after = Principal.Db.snapshot db in
  check "batch write published at exit" true
    (Principal.Db.Snapshot.is_member after
       ~individual_id:(Principal.Db.Snapshot.individual_id after inds.(2))
       ~group_id:(Principal.Db.Snapshot.group_id after grps.(2)));
  check "pre-batch churn published too" true
    (Principal.Db.Snapshot.is_member after
       ~individual_id:(Principal.Db.Snapshot.individual_id after inds.(1))
       ~group_id:(Principal.Db.Snapshot.group_id after grps.(1)));
  (* With no incumbent at all, the mid-batch build is served
     born-stale: nothing minted from it validates once — or while —
     the batch publishes. *)
  let db2 = fresh_db () in
  Principal.Db.add_member db2 grps.(0) (Principal.Ind inds.(0));
  Principal.Db.batch db2 (fun () ->
      Principal.Db.add_member db2 grps.(1) (Principal.Ind inds.(1));
      let during = Principal.Db.snapshot db2 in
      check "first-ever mid-batch snapshot is born stale" true
        (Principal.Db.Snapshot.generation during < Principal.Db.generation db2));
  check "db2 converges after its batch" true
    (snapshot_matrix (Principal.Db.snapshot db2)
    = snapshot_matrix (Principal.Db.full_snapshot db2))

(* {1 Twin-path differential oracle: incremental vs full rebuild} *)

let oracle_probes = ref 0

let hierarchy = Level.hierarchy [ "high"; "low" ]
let universe = Category.universe [ "a" ]
let bottom =
  Security_class.make (Level.of_name_exn hierarchy "low") (Category.of_names universe [])

let who_of w =
  match w mod 10 with
  | 0 -> Acl.Everyone
  | (1 | 2 | 3) as i -> Acl.Individual inds.(i)
  | g -> Acl.Group grps.((g - 4) mod Array.length grps)

let prop_incremental_oracle =
  (* One database, driven through randomized membership churn with a
     randomized batching schedule; after every flush the incrementally
     maintained snapshot (the production path) is compared against a
     from-scratch rebuild (the seed semantics) and against the live
     interpreted walk — membership matrix, groups_of, and the compiled
     ACL verdicts of a churn-dependent ACL. *)
  QCheck.Test.make ~name:"incremental snapshot = full rebuild, under churn"
    ~count:120
    QCheck.(
      pair
        (small_list (pair arb_ops bool))  (* churn rounds; bool = batched *)
        (small_list (triple small_nat bool (small_list (oneofl Access_mode.all)))))
    (fun (rounds, acl_spec) ->
      let db = fresh_db () in
      let acl =
        Acl.of_entries
          (List.map
             (fun (w, positive, modes) ->
               (if positive then Acl.allow else Acl.deny) (who_of w) modes)
             acl_spec)
      in
      let meta = Meta.make ~owner:inds.(0) ~acl bottom in
      let verify () =
        let incremental = Principal.Db.snapshot db in
        let full = Principal.Db.full_snapshot db in
        if Principal.Db.Snapshot.generation incremental
           <> Principal.Db.Snapshot.generation full
        then QCheck.Test.fail_report "generation drifted between twin paths";
        if snapshot_matrix incremental <> snapshot_matrix full then
          QCheck.Test.fail_report "incremental snapshot diverged from full rebuild";
        if snapshot_matrix incremental <> membership_matrix db then
          QCheck.Test.fail_report "snapshot diverged from the interpreted walk";
        Array.iter
          (fun ind ->
            incr oracle_probes;
            let via_rows = Principal.Db.groups_of db ind in
            let via_walk =
              List.filter (fun grp -> Principal.Db.is_member db ind grp)
                (Principal.Db.groups db)
            in
            if via_rows <> via_walk then
              QCheck.Test.fail_report "groups_of diverged from the interpreted filter")
          inds;
        (* The compiled ACL is memoized against the incremental
           snapshot; it must agree with the interpreted walk after
           every churn round. *)
        let compiled = Meta.compiled_acl meta ~db in
        Array.iter
          (fun subject ->
            List.iter
              (fun mode ->
                incr oracle_probes;
                let compiled_class =
                  Acl_compiled.verdict_class
                    (Acl_compiled.check compiled ~subject ~mode)
                in
                let interp_class =
                  match Acl.check ~db ~subject ~mode acl with
                  | Acl.Granted _ -> 0
                  | Acl.Denied_by _ -> 1
                  | Acl.No_entry -> 2
                in
                if compiled_class <> interp_class then
                  QCheck.Test.fail_report "compiled ACL diverged under churn")
              Access_mode.all)
          inds
      in
      verify ();
      List.iter
        (fun (ops, batched) ->
          if batched then Principal.Db.batch db (fun () -> List.iter (apply db) ops)
          else List.iter (apply db) ops;
          verify ())
        rounds;
      true)

let test_oracle_probe_volume () =
  check "over 10k twin-path probes" true (!oracle_probes >= 10_000)

(* {1 Compiled form at a population in the thousands} *)

let test_compiled_differential () =
  (* Hold the compiled form, with its group entries resolved against
     snapshot rows of a 4,246-individual world, to the interpreted
     walk across every tier: individual allow/deny, group allow/deny
     through a nested closure, everyone, and never-registered "extra"
     principals. *)
  let db = Principal.Db.create () in
  let population = 4_246 in
  let people = Array.init population (fun i -> Principal.individual (Printf.sprintf "s%d" i)) in
  Array.iter (Principal.Db.add_individual db) people;
  let evens = Principal.group "evens" in
  let quads = Principal.group "quads" in
  Principal.Db.add_member db evens (Principal.Grp quads);
  for i = 0 to 799 do
    if i mod 4 = 0 then Principal.Db.add_member db quads (Principal.Ind people.(i))
    else if i mod 2 = 0 then Principal.Db.add_member db evens (Principal.Ind people.(i))
  done;
  let ghost = Principal.individual "ghost" in
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Individual people.(1)) [ Access_mode.Write ];
        Acl.deny (Acl.Individual people.(3)) [ Access_mode.Read ];
        Acl.allow (Acl.Group evens) [ Access_mode.Read ];
        Acl.deny (Acl.Group quads) [ Access_mode.Write ];
        Acl.allow (Acl.Individual ghost) [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ]
  in
  check "world holds the whole population" true
    (Principal.Db.individual_count db = population);
  let compiled = Acl_compiled.compile ~db acl in
  let agree subject =
    List.iter
      (fun mode ->
        incr oracle_probes;
        let compiled_class =
          Acl_compiled.verdict_class (Acl_compiled.check compiled ~subject ~mode)
        in
        let interp_class =
          match Acl.check ~db ~subject ~mode acl with
          | Acl.Granted _ -> 0
          | Acl.Denied_by _ -> 1
          | Acl.No_entry -> 2
        in
        Alcotest.(check int)
          (Printf.sprintf "%s/%s" (Principal.individual_name subject)
             (Format.asprintf "%a" Access_mode.pp mode))
          interp_class compiled_class)
      Access_mode.all
  in
  for i = 0 to 63 do
    agree people.(i)
  done;
  agree people.(population - 1);
  agree ghost;
  agree (Principal.individual "never-registered");
  (* Churn: membership moves must recompile to the same verdicts as
     the interpreted walk. *)
  Principal.Db.remove_member db evens (Principal.Grp quads);
  let compiled = Acl_compiled.compile ~db acl in
  let sees_read subject expected =
    let fast = Acl_compiled.permits compiled ~subject ~mode:Access_mode.Read in
    let interp = Acl.permits ~db ~subject ~mode:Access_mode.Read acl in
    let name = Principal.individual_name subject in
    check (Printf.sprintf "%s: paths agree after unnesting" name) true (fast = interp);
    check (Printf.sprintf "%s: read after unnesting" name) expected fast
  in
  sees_read people.(2) true;
  sees_read people.(4) false;
  (* The zero-allocation pin holds at this population too; the boxes
     [Gc.minor_words] itself allocates are identical between baseline
     and measured run (the test_acl_compiled idiom). *)
  let subject = people.(8) in
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let run () =
    for _ = 1 to 1_000 do
      ignore (Acl_compiled.check compiled ~subject ~mode:Access_mode.Read)
    done
  in
  run ();
  let baseline = minor_delta (fun () -> ()) in
  Alcotest.(check (float 0.)) "check allocates nothing" baseline
    (minor_delta run)

(* {1 Delta-rebuild corners} *)

let test_delta_propagates_through_ancestors () =
  (* g2 contains g1 contains g0; a churn on g0 must refresh the
     closures of both ancestors through the reverse-membership
     index. *)
  let db = fresh_db () in
  Principal.Db.add_member db grps.(1) (Principal.Grp grps.(0));
  Principal.Db.add_member db grps.(2) (Principal.Grp grps.(1));
  ignore (Principal.Db.snapshot db);
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(5));
  let snap = Principal.Db.snapshot db in
  let id = Principal.Db.Snapshot.individual_id snap inds.(5) in
  List.iter
    (fun g ->
      check
        (Printf.sprintf "u5 reached %s" (Principal.group_name grps.(g)))
        true
        (Principal.Db.Snapshot.is_member snap ~individual_id:id
           ~group_id:(Principal.Db.Snapshot.group_id snap grps.(g))))
    [ 0; 1; 2 ];
  (* And removal shrinks all three closures again. *)
  Principal.Db.remove_member db grps.(0) (Principal.Ind inds.(5));
  let snap = Principal.Db.snapshot db in
  List.iter
    (fun g ->
      check "u5 gone after removal" false
        (Principal.Db.Snapshot.is_member snap ~individual_id:id
           ~group_id:(Principal.Db.Snapshot.group_id snap grps.(g))))
    [ 0; 1; 2 ]

let test_registration_falls_back_to_full () =
  (* Registering a new principal after a snapshot invalidates the
     intern tables; the next refresh must be a (correct) full rebuild
     the moment membership changes. *)
  let db = fresh_db () in
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0));
  ignore (Principal.Db.snapshot db);
  let late = Principal.individual "latecomer" in
  Principal.Db.add_member db grps.(1) (Principal.Ind late);
  let snap = Principal.Db.snapshot db in
  check "latecomer interned" true (Principal.Db.Snapshot.individual_id snap late >= 0);
  check "latecomer membership visible" true
    (Principal.Db.Snapshot.is_member snap
       ~individual_id:(Principal.Db.Snapshot.individual_id snap late)
       ~group_id:(Principal.Db.Snapshot.group_id snap grps.(1)))

(* {1 Satellite: deep shared-subgroup DAGs validate in linear time} *)

let test_deep_dag_linear () =
  (* A 64-deep diamond DAG: level i's group contains both groups of
     level i-1, so the path count is 2^63 while the edge count is
     ~250.  Without the visited set, the cycle validation of
     add_member (and is_member) re-walks shared subgroups per path and
     never returns; with it, the whole construction plus the
     membership probes are instantaneous. *)
  let db = Principal.Db.create () in
  let levels = 64 in
  let g i side = Principal.group (Printf.sprintf "d%d_%d" i side) in
  let alice = Principal.individual "alice" in
  Principal.Db.add_member db (g 0 0) (Principal.Ind alice);
  Principal.Db.add_member db (g 0 1) (Principal.Ind alice);
  for i = 1 to levels - 1 do
    for side = 0 to 1 do
      Principal.Db.add_member db (g i side) (Principal.Grp (g (i - 1) 0));
      Principal.Db.add_member db (g i side) (Principal.Grp (g (i - 1) 1))
    done
  done;
  check "member through the whole DAG" true
    (Principal.Db.is_member db alice (g (levels - 1) 0));
  (* The cycle check across the same DAG must also stay linear: a
     back edge from the bottom to the top is still caught. *)
  (match Principal.Db.add_member db (g 0 0) (Principal.Grp (g (levels - 1) 1)) with
  | () -> Alcotest.fail "cycle through the DAG accepted"
  | exception Invalid_argument _ -> ());
  check "bottom group unscathed" true (Principal.Db.is_member db alice (g 0 0))

(* {1 Multi-domain: readers probe while batches are in flight} *)

let test_parallel_readers_during_batches () =
  let db = fresh_db () in
  (* The sentinel membership exists ONLY inside batches: every batch
     adds it first and removes it before exiting, so it is part of no
     published state, ever.  A reader that sees it through a snapshot
     caught partial batch state — the isolation hole the batch epoch
     guard closes. *)
  let sentinel_grp = Principal.group "zz-sentinel" in
  let sentinel_ind = inds.(0) in
  Principal.Db.add_group db sentinel_grp;
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(0));
  ignore (Principal.Db.snapshot db);
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let leaks = Atomic.make 0 in
  let reader () =
    (* Probe the snapshot and derived reads continuously; every
       observed snapshot must carry a generation no newer than the
       published counter read after it, probes must never raise, and
       no snapshot may ever contain the sentinel.
       (Generation is read after the snapshot: the mutator only moves
       it forward, so snapshot generation <= live generation always.) *)
    while not (Atomic.get stop) do
      try
        let snap = Principal.Db.snapshot db in
        let live = Principal.Db.generation db in
        if Principal.Db.Snapshot.generation snap > live then Atomic.incr failures;
        if
          Principal.Db.Snapshot.is_member snap
            ~individual_id:(Principal.Db.Snapshot.individual_id snap sentinel_ind)
            ~group_id:(Principal.Db.Snapshot.group_id snap sentinel_grp)
        then Atomic.incr leaks;
        ignore (snapshot_matrix snap);
        Array.iter (fun ind -> ignore (Principal.Db.groups_of db ind)) inds
      with _ -> Atomic.incr failures
    done
  in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  for round = 1 to 200 do
    (* Unbatched churn between rounds leaves the cached slot stale for
       the batch that follows — the regression case where a mid-batch
       rebuild used to stamp partial state as current. *)
    (if round mod 2 = 0 then
       Principal.Db.add_member db grps.(1) (Principal.Ind inds.(7))
     else Principal.Db.remove_member db grps.(1) (Principal.Ind inds.(7)));
    Principal.Db.batch db (fun () ->
        Principal.Db.add_member db sentinel_grp (Principal.Ind sentinel_ind);
        for k = 0 to 4 do
          let g = (round + k) mod Array.length grps in
          let ind = Principal.Ind inds.((round * 3 + k) mod Array.length inds) in
          if (round + k) mod 3 = 0 then Principal.Db.remove_member db grps.(g) ind
          else Principal.Db.add_member db grps.(g) ind
        done;
        Principal.Db.remove_member db sentinel_grp (Principal.Ind sentinel_ind))
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  check_int "no reader failures" 0 (Atomic.get failures);
  check_int "no batch state leaked through a snapshot" 0 (Atomic.get leaks);
  (* Settled state: the incremental path agrees with a full rebuild. *)
  check "converged" true
    (snapshot_matrix (Principal.Db.snapshot db)
    = snapshot_matrix (Principal.Db.full_snapshot db))

(* {1 Extsys: a batch is exactly one drift to the fast paths} *)

let test_kernel_batch_single_drift () =
  let open Exsec_extsys in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let user = Principal.individual "user" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db user;
  Principal.Db.add_group db (Principal.group "team");
  let h = Level.hierarchy [ "hi"; "lo" ] in
  let u = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy:h ~universe:u () in
  let admin_sub = Kernel.admin_subject kernel in
  let path = Path.of_string "/svc/probe" in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
      (Security_class.bottom h u)
  in
  (match
     Kernel.install_proc kernel ~subject:admin_sub path ~meta
       (Service.proc "probe" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Service.error_to_string e));
  let subject = Subject.make user (Security_class.bottom h u) in
  let handle =
    match Kernel.open_handle kernel ~subject ~caller:"test" path with
    | Ok handle -> handle
    | Error e -> Alcotest.fail (Service.error_to_string e)
  in
  check "handle grants before the batch" true
    (Kernel.call_handle kernel handle [] = Ok (Value.int 7));
  let stamp = Reference_monitor.stamp (Kernel.monitor kernel) in
  let g0 = Principal.Db.generation db in
  Kernel.batch_principals kernel (fun () ->
      let team = Principal.group "team" in
      for i = 0 to 99 do
        Principal.Db.add_member db team
          (Principal.Ind (Principal.individual (Printf.sprintf "bulk%d" i)))
      done);
  (* The hundred-member import published as one drift... *)
  check_int "one generation bump for the whole import" (g0 + 1)
    (Principal.Db.generation db);
  check "pre-batch stamp invalidated" false
    (Reference_monitor.stamp_valid (Kernel.monitor kernel) stamp);
  (* ...so the handle fails closed once, re-minting against the
     settled state, and the very next call is fast-path valid again. *)
  check "handle still grants after the batch" true
    (Kernel.call_handle kernel handle [] = Ok (Value.int 7));
  let stamp' = Reference_monitor.stamp (Kernel.monitor kernel) in
  check "post-batch stamp stable" true
    (Reference_monitor.stamp_valid (Kernel.monitor kernel) stamp');
  check "re-minted handle grants" true
    (Kernel.call_handle kernel handle [] = Ok (Value.int 7))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_batch_equiv_sequential;
    Alcotest.test_case "batch: empty and idempotent publish nothing" `Quick
      test_batch_empty_and_idempotent;
    Alcotest.test_case "batch: nesting and exceptions publish once" `Quick
      test_batch_nested_and_exceptional;
    Alcotest.test_case "batch: readers see published state" `Quick
      test_readers_see_published_state_during_batch;
    Alcotest.test_case "batch: stale slot cannot leak mid-batch state" `Quick
      test_stale_slot_batch_isolation;
    QCheck_alcotest.to_alcotest prop_incremental_oracle;
    Alcotest.test_case "oracle covered 10k probes" `Quick test_oracle_probe_volume;
    Alcotest.test_case "compiled form = interpreted walk" `Quick
      test_compiled_differential;
    Alcotest.test_case "delta propagates through ancestor groups" `Quick
      test_delta_propagates_through_ancestors;
    Alcotest.test_case "registration falls back to full rebuild" `Quick
      test_registration_falls_back_to_full;
    Alcotest.test_case "deep shared DAG validates linearly" `Quick test_deep_dag_linear;
    Alcotest.test_case "parallel readers during batches" `Quick
      test_parallel_readers_during_batches;
    Alcotest.test_case "kernel batch is one drift to the fast paths" `Quick
      test_kernel_batch_single_drift;
  ]
