(* Differential oracle for the monitor's memoized state: the compiled
   ACL memoized on each object's metadata and the snapshot id memoized
   on each subject.  A seeded operation stream drives
   [Reference_monitor.decide] and the reference oracle's interpreted
   decision ([Oracle.decide]: the [Acl.check] walk over live group
   membership, then [Mac.check], then [Integrity.check]) over the same
   principal database and objects.
   Every check must produce the same [Decision.t], deny [who] included
   — also right after a mid-stream revocation (ACL replacement,
   relabeling, policy swaps, group membership churn).  Any divergence
   is a stale memo or a wrong diagnostic. *)

open Exsec_core
open Exsec_workload

let check = Alcotest.(check bool)
let decision = Alcotest.testable Decision.pp Decision.equal

(* {1 Differential replay} *)

let replay ~seed ~steps ~mutation_fraction =
  let rng = Prng.create ~seed in
  let env =
    Opstream.environment rng ~individuals:16 ~groups:4 ~subjects:12 ~objects:24
      ~levels:3 ~categories:3
  in
  let db = env.Opstream.db in
  let monitor = Reference_monitor.create db in
  let policy = ref Policy.default in
  let ops = Opstream.generate rng env ~steps ~mutation_fraction in
  List.iteri
    (fun step op ->
      match op with
      | Opstream.Check { subject; object_; mode } ->
        let subject = env.Opstream.subjects.(subject) in
        let meta = env.Opstream.metas.(object_) in
        let expected = fst (Oracle.decide !policy ~db subject meta mode) in
        Alcotest.check decision
          (Printf.sprintf "seed %d step %d" seed step)
          expected
          (Reference_monitor.decide monitor ~subject ~meta ~mode)
      | Opstream.Set_acl { object_; acl } ->
        env.Opstream.metas.(object_) <- Meta.with_acl env.Opstream.metas.(object_) acl
      | Opstream.Set_class { object_; klass } ->
        env.Opstream.metas.(object_) <- Meta.with_klass env.Opstream.metas.(object_) klass
      | Opstream.Set_integrity { object_; integrity } ->
        env.Opstream.metas.(object_) <- Meta.with_integrity env.Opstream.metas.(object_) integrity
      | Opstream.Set_policy next ->
        policy := next;
        Reference_monitor.set_policy monitor next
      | Opstream.Join_group { group; ind } ->
        Principal.Db.add_member db group (Principal.Ind ind)
      | Opstream.Leave_group { group; ind } ->
        Principal.Db.remove_member db group (Principal.Ind ind))
    ops

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233 ]

let test_differential_check_only () =
  (* Pure check streams: maximal reuse of both memos, no revocations. *)
  List.iter (fun seed -> replay ~seed ~steps:600 ~mutation_fraction:0.0) seeds

let test_differential_with_revocations () =
  (* One op in five mutates — far hotter churn than any deployment, so
     every invalidation path (per-object generation, database
     generation, policy epoch) is exercised on every seed. *)
  List.iter (fun seed -> replay ~seed ~steps:600 ~mutation_fraction:0.2) seeds

(* {1 Explicit revocation scenarios} *)

(* A minimal world where one subject's access hinges on exactly one
   mutable input, so a stale memo would flip the visible outcome.  Each
   scenario decides twice before the mutation (the second answer comes
   from the warm memos) and compares every answer with the reference
   under the monitor's current policy. *)
let small_world () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [ "c" ] in
  let bottom = Security_class.bottom hierarchy universe in
  let top = Security_class.top hierarchy universe in
  let subject = Subject.make alice bottom in
  db, alice, subject, bottom, top

let decider db monitor subject meta label =
  let decided = Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read in
  Alcotest.check decision (label ^ " (= reference)")
    (fst (Oracle.decide (Reference_monitor.policy monitor) ~db subject meta Access_mode.Read))
    decided;
  decided

let test_acl_change_revokes () =
  let db, alice, subject, bottom, _top = small_world () in
  let monitor = Reference_monitor.create db in
  let meta =
    Meta.make ~owner:alice
      ~acl:(Acl.of_entries [ Acl.allow (Acl.Individual alice) [ Access_mode.Read ] ])
      bottom
  in
  let decide = decider db monitor subject meta in
  Alcotest.check decision "granted before" Decision.Granted (decide "first");
  Alcotest.check decision "memoized grant" Decision.Granted (decide "second");
  let decide =
    decider db monitor subject
      (Meta.with_acl meta (Acl.of_entries [ Acl.deny (Acl.Individual alice) [ Access_mode.Read ] ]))
  in
  Alcotest.check decision "revoked after ACL swap"
    (Decision.Denied (Decision.Dac_explicit_deny (Acl.Individual alice)))
    (decide "after swap")

let test_membership_change_revokes () =
  let db, alice, subject, bottom, _top = small_world () in
  let readers = Principal.group "readers" in
  let banned = Principal.group "banned" in
  Principal.Db.add_member db readers (Principal.Ind alice);
  Principal.Db.add_group db banned;
  let monitor = Reference_monitor.create db in
  let meta =
    Meta.make ~owner:alice
      ~acl:
        (Acl.of_entries
           [
             Acl.allow (Acl.Group readers) [ Access_mode.Read ];
             Acl.deny (Acl.Group banned) [ Access_mode.Read ];
           ])
      bottom
  in
  let decide = decider db monitor subject meta in
  Alcotest.check decision "granted via group" Decision.Granted (decide "first");
  Alcotest.check decision "memoized grant" Decision.Granted (decide "second");
  Principal.Db.remove_member db readers (Principal.Ind alice);
  Alcotest.check decision "revoked after leaving group"
    (Decision.Denied Decision.Dac_no_entry) (decide "after leave");
  (* Rejoining must also take effect immediately. *)
  Principal.Db.add_member db readers (Principal.Ind alice);
  Alcotest.check decision "regranted after rejoining" Decision.Granted (decide "rejoined");
  (* A group-tier deny names its group, read from the new snapshot. *)
  Principal.Db.add_member db banned (Principal.Ind alice);
  Alcotest.check decision "denied by the banned group"
    (Decision.Denied (Decision.Dac_explicit_deny (Acl.Group banned)))
    (decide "banned")

let test_relabel_revokes () =
  let db, alice, subject, bottom, top = small_world () in
  let monitor = Reference_monitor.create db in
  let meta =
    Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) bottom
  in
  let decide = decider db monitor subject meta in
  Alcotest.check decision "granted at bottom" Decision.Granted (decide "first");
  Alcotest.check decision "memoized grant" Decision.Granted (decide "second");
  let decide = decider db monitor subject (Meta.with_klass meta top) in
  check "denied after relabel to top" false (Decision.is_granted (decide "relabelled"))

let test_policy_change_revokes () =
  let db, alice, subject, _bottom, top = small_world () in
  let monitor = Reference_monitor.create db in
  let meta =
    Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) top
  in
  let decide = decider db monitor subject meta in
  check "MAC denies read-up" false (Decision.is_granted (decide "first"));
  check "still denied" false (Decision.is_granted (decide "second"));
  Reference_monitor.set_policy monitor Policy.dac_only;
  Alcotest.check decision "granted once MAC is off" Decision.Granted (decide "dac only");
  Reference_monitor.set_policy monitor Policy.default;
  check "denied again under default" false (Decision.is_granted (decide "default"))

let test_reinterning_moves_the_id () =
  (* Registering a principal that sorts before alice, then any
     membership edit, refreshes the snapshot.  Ids follow registration
     order, not name order, so aaron gets the next id and alice keeps
     hers: her subject's memoized id must still name her. *)
  let db, alice, subject, bottom, _top = small_world () in
  let staff = Principal.group "staff" in
  Principal.Db.add_group db staff;
  let monitor = Reference_monitor.create db in
  let meta =
    Meta.make ~owner:alice
      ~acl:(Acl.of_entries [ Acl.allow (Acl.Individual alice) [ Access_mode.Read ] ])
      bottom
  in
  let decide = decider db monitor subject meta in
  Alcotest.check decision "granted" Decision.Granted (decide "first");
  Principal.Db.add_individual db (Principal.individual "aaron");
  Principal.Db.add_member db staff (Principal.Ind alice);
  Alcotest.check decision "still granted at the new id" Decision.Granted
    (decide "re-interned")

let suite =
  [
    Alcotest.test_case "differential: check-only streams" `Quick test_differential_check_only;
    Alcotest.test_case "differential: with revocations" `Quick
      test_differential_with_revocations;
    Alcotest.test_case "ACL change revokes" `Quick test_acl_change_revokes;
    Alcotest.test_case "membership change revokes" `Quick test_membership_change_revokes;
    Alcotest.test_case "relabel revokes" `Quick test_relabel_revokes;
    Alcotest.test_case "policy change revokes" `Quick test_policy_change_revokes;
    Alcotest.test_case "re-interning moves the subject id" `Quick
      test_reinterning_moves_the_id;
  ]
