(* The compiled ACL decision path: differential equivalence with the
   interpreted walk (verdict and deny [who], at a small and a large
   population), corner cases of the interning/extras scheme, the
   allocation-free guarantee the hot path advertises, and a compile
   cost that does not grow with the population. *)

open Exsec_core

let check = Alcotest.(check bool)

let std () =
  let hierarchy = Level.hierarchy [ "high"; "low" ] in
  let universe = Category.universe [ "a" ] in
  hierarchy, universe

let bottom () =
  let hierarchy, universe = std () in
  Security_class.make (Level.of_name_exn hierarchy "low") (Category.of_names universe [])

(* Fixed pools: five registered individuals, two never registered,
   four groups.  Every generator below draws from these by index so
   the shrinker stays meaningful. *)
let ind_names = [| "alice"; "bob"; "carol"; "dave"; "erin" |]
let unreg_names = [| "ghost"; "phantom" |]
let grp_names = [| "staff"; "eng"; "ops"; "root" |]

(* [padding] extra registered individuals, in no group and named by no
   ACL, grow the population into the thousands, so the same cases run
   against a large snapshot. *)
let build_world ?(padding = 0) memberships =
  let db = Principal.Db.create () in
  let inds = Array.map Principal.individual ind_names in
  let grps = Array.map Principal.group grp_names in
  Array.iter (Principal.Db.add_individual db) inds;
  for i = 1 to padding do
    Principal.Db.add_individual db (Principal.individual (Printf.sprintf "pad%05d" i))
  done;
  Array.iter (Principal.Db.add_group db) grps;
  List.iter
    (fun (g, m) ->
      let group = grps.(g mod Array.length grps) in
      let member =
        let n = m mod (Array.length inds + Array.length grps) in
        if n < Array.length inds then Principal.Ind inds.(n)
        else Principal.Grp grps.(n - Array.length inds)
      in
      (* Cycle-creating nestings are rejected; skipping them keeps the
         generator total while still producing 2-level groups. *)
      try Principal.Db.add_member db group member with Invalid_argument _ -> ())
    memberships;
  db, inds, grps

let who_of inds grps w =
  match w mod 12 with
  | 0 -> Acl.Everyone
  | (1 | 2 | 3 | 4 | 5) as i -> Acl.Individual inds.(i - 1)
  | (6 | 7) as i -> Acl.Individual (Principal.individual unreg_names.(i - 6))
  | g -> Acl.Group grps.(g - 8)

let acl_of_spec inds grps spec =
  Acl.of_entries
    (List.map
       (fun (w, positive, modes) ->
         (if positive then Acl.allow else Acl.deny) (who_of inds grps w) modes)
       spec)

let all_subjects inds =
  Array.to_list inds @ Array.to_list (Array.map Principal.individual unreg_names)

let interp_class = function
  | Acl.Granted _ -> 0
  | Acl.Denied_by _ -> 1
  | Acl.No_entry -> 2

let probes_total = ref 0
let denials_total = ref 0

(* Same verdict class, and a denial names the same entry. *)
let same_verdict compiled interpreted =
  match compiled, interpreted with
  | Acl_compiled.Granted, Acl.Granted _ | Acl_compiled.No_entry, Acl.No_entry -> true
  | Acl_compiled.Denied who, Acl.Denied_by expected ->
    incr denials_total;
    who = expected
  | (Acl_compiled.Granted | Acl_compiled.Denied _ | Acl_compiled.No_entry), _ -> false

(* One agreement sweep: every subject x every mode, compiled against
   interpreted.  56 probes per call. *)
let agree ~db ~acl ~compiled inds =
  List.for_all
    (fun subject ->
      List.for_all
        (fun mode ->
          incr probes_total;
          same_verdict
            (Acl_compiled.check compiled ~subject ~mode)
            (Acl.check ~db ~subject ~mode acl))
        Access_mode.all)
    (all_subjects inds)

let arb_mode = QCheck.oneofl Access_mode.all

let prop_differential ~name ~count ~padding =
  (* The tentpole contract: the compiled path and the interpreted walk
     agree on the verdict — and on the deny entry's [who] — for every
     (acl, group db, subject, mode), including across membership and
     ACL mutation, which must invalidate the form memoized on the
     metadata.  At >= 56 probes per phase and >= 2 phases per case,
     the cases put well over 10k randomized probes through the
     comparison (asserted below). *)
  QCheck.Test.make ~name ~count
    QCheck.(
      triple
        (small_list (pair small_nat small_nat)) (* group memberships *)
        (small_list (triple small_nat bool (small_list arb_mode))) (* ACL entries *)
        (small_list (triple small_nat small_nat bool)) (* membership mutations *))
    (fun (memberships, entry_spec, mutations) ->
      let db, inds, grps = build_world ~padding memberships in
      let acl = acl_of_spec inds grps entry_spec in
      let meta = Meta.make ~owner:inds.(0) ~acl (bottom ()) in
      let ok = ref true in
      let sweep () =
        let compiled = Meta.compiled_acl meta ~db in
        if not (agree ~db ~acl:meta.Meta.acl ~compiled inds) then ok := false
      in
      (* Phase 1: the freshly compiled form. *)
      sweep ();
      (* A clean re-read must reuse the memoized form, not recompile. *)
      if not (Meta.compiled_acl meta ~db == Meta.compiled_acl meta ~db) then ok := false;
      (* Phase 2: membership churn mid-stream; every mutation that
         lands bumps the db generation and must force a recompile. *)
      List.iter
        (fun (g, m, add) ->
          let group = grps.(g mod Array.length grps) in
          let member = Principal.Ind inds.(m mod Array.length inds) in
          (try
             if add then Principal.Db.add_member db group member
             else Principal.Db.remove_member db group member
           with Invalid_argument _ -> ());
          sweep ())
        mutations;
      (* Phase 3: replace the ACL under the object; the meta
         generation bump must invalidate the memoized form. *)
      Meta.set_acl_raw meta
        (Acl.add (Acl.deny (Acl.Individual inds.(1)) [ Access_mode.Read ]) acl);
      sweep ();
      !ok)

let prop_small_population =
  prop_differential ~name:"compiled = interpreted, across mutation" ~count:150 ~padding:0

let prop_large_population =
  prop_differential ~name:"compiled = interpreted, large population" ~count:40
    ~padding:4_096

let test_probe_volume () =
  (* Run after the QCheck cases by suite order; the differential sweeps
     must have covered the mandated >= 10k probes, and enough denials
     to hold the deny [who] to the interpreted walk. *)
  check "over 10k differential probes" true (!probes_total >= 10_000);
  check "over 1k denials compared by who" true (!denials_total >= 1_000)

(* {1 Corner cases} *)

let fixture () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  let mallory = Principal.individual "mallory" in
  let staff = Principal.group "staff" in
  let inner = Principal.group "inner" in
  List.iter (Principal.Db.add_individual db) [ alice; bob; mallory ];
  Principal.Db.add_member db inner (Principal.Ind alice);
  Principal.Db.add_member db staff (Principal.Grp inner);
  Principal.Db.add_member db staff (Principal.Ind bob);
  db, alice, bob, mallory, staff, inner

let classify db acl subject mode =
  let compiled = Acl_compiled.compile ~db acl in
  Acl_compiled.verdict_class (Acl_compiled.check compiled ~subject ~mode)

let test_tier_precedence () =
  let db, alice, bob, mallory, staff, _ = fixture () in
  let acl =
    Acl.of_entries
      [
        Acl.allow Acl.Everyone [ Access_mode.Read ];
        Acl.deny (Acl.Group staff) [ Access_mode.Read ];
        Acl.allow (Acl.Individual alice) [ Access_mode.Read ];
      ]
  in
  (* alice: individual allow beats the group deny (via nested inner). *)
  check "individual beats group" true (classify db acl alice Access_mode.Read = 0);
  (* bob: staff deny beats the everyone allow. *)
  check "group beats everyone" true (classify db acl bob Access_mode.Read = 1);
  (* mallory: no staff membership, everyone tier grants. *)
  check "everyone grants outsider" true (classify db acl mallory Access_mode.Read = 0)

let test_deny_beats_allow_in_tier () =
  let db, alice, _, _, _, _ = fixture () in
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Individual alice) [ Access_mode.Write ];
        Acl.deny (Acl.Individual alice) [ Access_mode.Write ];
      ]
  in
  check "deny wins" true (classify db acl alice Access_mode.Write = 1)

let test_unregistered_subject_and_extras () =
  let db, alice, _, _, staff, _ = fixture () in
  let ghost = Principal.individual "ghost" in
  (* ghost is never registered: the entry lands in the extras table
     and must still decide, allow and deny alike. *)
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Individual ghost) [ Access_mode.Read ];
        Acl.deny (Acl.Individual ghost) [ Access_mode.Write ];
        Acl.allow (Acl.Group staff) [ Access_mode.Execute ];
      ]
  in
  check "extras allow" true (classify db acl ghost Access_mode.Read = 0);
  check "extras deny" true (classify db acl ghost Access_mode.Write = 1);
  (* An unregistered subject is in no group: the staff grant must not
     leak to ghost, while alice gets it through the nested chain. *)
  check "no group leak to unregistered" true (classify db acl ghost Access_mode.Execute = 2);
  check "nested group grant" true (classify db acl alice Access_mode.Execute = 0)

let test_unregistered_group_compiles_away () =
  let db, alice, _, _, _, _ = fixture () in
  let phantom = Principal.group "phantoms" in
  let acl = Acl.of_entries [ Acl.allow (Acl.Group phantom) [ Access_mode.Read ] ] in
  (* A group unknown to the database has no members; the entry decides
     for nobody — same as the interpreted walk. *)
  check "compiled" true (classify db acl alice Access_mode.Read = 2);
  check "interpreted agrees" true
    (interp_class (Acl.check ~db ~subject:alice ~mode:Access_mode.Read acl) = 2)

let test_memoization_and_invalidation () =
  let db, alice, bob, _, staff, _ = fixture () in
  let acl = Acl.of_entries [ Acl.allow (Acl.Group staff) [ Access_mode.Read ] ] in
  let meta = Meta.make ~owner:alice ~acl (bottom ()) in
  let c0 = Meta.compiled_acl meta ~db in
  check "clean reuse is physical" true (c0 == Meta.compiled_acl meta ~db);
  (* Membership change: db generation moves, form must recompile and
     reflect the new membership. *)
  Principal.Db.remove_member db staff (Principal.Ind bob);
  let c1 = Meta.compiled_acl meta ~db in
  check "db bump recompiles" true (not (c0 == c1));
  check "new membership visible" true
    (Acl_compiled.verdict_class (Acl_compiled.check c1 ~subject:bob ~mode:Access_mode.Read)
     = 2);
  (* ACL change: meta generation moves. *)
  Meta.set_acl_raw meta Acl.empty;
  let c2 = Meta.compiled_acl meta ~db in
  check "acl bump recompiles" true (not (c1 == c2));
  check "empty acl decides nothing" true
    (Acl_compiled.verdict_class (Acl_compiled.check c2 ~subject:alice ~mode:Access_mode.Read)
     = 2)

let test_snapshot_validity () =
  let db, alice, _, _, staff, _ = fixture () in
  let snap = Principal.Db.snapshot db in
  check "stamped with live generation" true
    (Principal.Db.Snapshot.generation snap = Principal.Db.generation db);
  check "membership via snapshot" true
    (Principal.Db.Snapshot.is_member snap
       ~individual_id:(Principal.Db.Snapshot.individual_id snap alice)
       ~group_id:(Principal.Db.Snapshot.group_id snap staff));
  check "out of range is nobody" false
    (Principal.Db.Snapshot.is_member snap ~individual_id:(-1)
       ~group_id:(Principal.Db.Snapshot.group_id snap staff));
  Principal.Db.add_member db staff (Principal.Ind (Principal.individual "mallory"));
  check "stale after membership change" true
    (Principal.Db.Snapshot.generation snap <> Principal.Db.generation db);
  let snap' = Principal.Db.snapshot db in
  check "rebuilt snapshot current" true
    (Principal.Db.Snapshot.generation snap' = Principal.Db.generation db)

(* {1 Allocation regression}

   The boxes [Gc.minor_words] itself allocates are identical between
   the empty baseline and the measured run, so equality of the two
   deltas means the measured loop allocated exactly zero words. *)

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let test_check_allocates_nothing () =
  let db, alice, _, _, staff, _ = fixture () in
  let acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Group staff) [ Access_mode.Read; Access_mode.Execute ];
        Acl.deny (Acl.Individual (Principal.individual "ghost")) [ Access_mode.Write ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ]
  in
  let compiled = Acl_compiled.compile ~db acl in
  let run () =
    for _ = 1 to 10_000 do
      ignore (Acl_compiled.check compiled ~subject:alice ~mode:Access_mode.Read)
    done
  in
  run ();
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta run in
  Alcotest.(check (float 0.)) "grant path words" baseline measured

let test_decide_allocates_nothing () =
  (* End to end through the default monitor under the default policy
     (DAC, MAC and integrity): the compiled ACL, the subject's memoized
     snapshot id and the lattice checks must hold the whole granted
     [decide] call to zero words. *)
  let db, alice, _, _, staff, _ = fixture () in
  let monitor = Reference_monitor.create db in
  let acl = Acl.of_entries [ Acl.allow (Acl.Group staff) [ Access_mode.Read ] ] in
  (* One class value for both sides: MAC compares levels of one
     hierarchy. *)
  let klass = bottom () in
  let meta = Meta.make ~owner:alice ~acl klass in
  let subject = Subject.make alice klass in
  let run () =
    for _ = 1 to 10_000 do
      ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read)
    done
  in
  run ();
  let baseline = minor_delta (fun () -> ()) in
  let measured = minor_delta run in
  Alcotest.(check (float 0.)) "decide grant words" baseline measured

(* Every word allocated, on either heap.  A population-sized array is
   allocated straight on the major heap, which [Gc.minor_words] does
   not see; it shows in the major words not promoted from the minor
   heap.  ([Gc.allocated_bytes] sums the same counters, but on OCaml
   5.1 its minor part lags the allocations.) *)
let allocated_words f =
  let minor_before = Gc.minor_words () in
  let _, promoted_before, major_before = Gc.counters () in
  f ();
  let minor_after = Gc.minor_words () in
  let _, promoted_after, major_after = Gc.counters () in
  minor_after -. minor_before
  +. (major_after -. major_before)
  -. (promoted_after -. promoted_before)

let test_compile_allocation_ignores_population () =
  (* The compiled form holds the ACL's entries, not a slot per
     registered principal, so compiling one fixed ACL allocates no
     more at 4,000 individuals than at 16. *)
  let compile_words population =
    let db = Principal.Db.create () in
    let people =
      Array.init population (fun i -> Principal.individual (Printf.sprintf "p%04d" i))
    in
    Array.iter (Principal.Db.add_individual db) people;
    let staff = Principal.group "staff" in
    for i = 0 to 7 do
      Principal.Db.add_member db staff (Principal.Ind people.(i))
    done;
    let acl =
      Acl.of_entries
        [
          Acl.allow (Acl.Individual people.(0)) [ Access_mode.Read ];
          Acl.deny (Acl.Group staff) [ Access_mode.Write ];
          Acl.allow Acl.Everyone [ Access_mode.List ];
        ]
    in
    (* Build the snapshot outside the measurement. *)
    ignore (Principal.Db.snapshot db);
    allocated_words (fun () -> ignore (Acl_compiled.compile ~db acl))
  in
  let small = compile_words 16 in
  let large = compile_words 4_000 in
  check
    (Printf.sprintf "compile words at 4,000 (%.0f) <= at 16 (%.0f)" large small)
    true (large <= small)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_small_population;
    QCheck_alcotest.to_alcotest prop_large_population;
    Alcotest.test_case "differential probe volume" `Quick test_probe_volume;
    Alcotest.test_case "tier precedence" `Quick test_tier_precedence;
    Alcotest.test_case "deny beats allow in tier" `Quick test_deny_beats_allow_in_tier;
    Alcotest.test_case "unregistered subject and extras" `Quick
      test_unregistered_subject_and_extras;
    Alcotest.test_case "unregistered group compiles away" `Quick
      test_unregistered_group_compiles_away;
    Alcotest.test_case "memoization and invalidation" `Quick
      test_memoization_and_invalidation;
    Alcotest.test_case "snapshot validity" `Quick test_snapshot_validity;
    Alcotest.test_case "check allocates nothing" `Quick test_check_allocates_nothing;
    Alcotest.test_case "decide allocates nothing" `Quick test_decide_allocates_nothing;
    Alcotest.test_case "compile allocation ignores population" `Quick
      test_compile_allocation_ignores_population;
  ]
