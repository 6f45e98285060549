(* Subject, Meta, Audit and the reference monitor. *)

open Exsec_core

let check = Alcotest.(check bool)

let std () =
  let hierarchy = Level.hierarchy [ "high"; "low" ] in
  let universe = Category.universe [ "a"; "b" ] in
  hierarchy, universe

let cls hierarchy universe level cats =
  Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats)

let setup () =
  let hierarchy, universe = std () in
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  Principal.Db.add_individual db alice;
  Principal.Db.add_individual db bob;
  hierarchy, universe, db, alice, bob

(* {1 Subject} *)

let test_subject_effective_class () =
  let hierarchy, universe, _, alice, _ = setup () in
  let high = cls hierarchy universe "high" [ "a"; "b" ] in
  let low = cls hierarchy universe "low" [ "a" ] in
  let subject = Subject.make alice high in
  check "no ceiling" true (Security_class.equal (Subject.effective_class subject) high);
  let capped = Subject.with_ceiling subject low in
  check "capped" true (Security_class.equal (Subject.effective_class capped) low);
  (* Ceilings nest via meet: a second, incomparable ceiling can only
     narrow. *)
  let low_b = cls hierarchy universe "low" [ "b" ] in
  let doubly = Subject.with_ceiling capped low_b in
  Alcotest.(check int)
    "nested ceilings meet" 0
    (Category.cardinal (Security_class.categories (Subject.effective_class doubly)));
  let restored = Subject.without_ceiling doubly in
  check "without ceiling" true (Security_class.equal (Subject.effective_class restored) high)

let test_subject_ceiling_cannot_raise () =
  let hierarchy, universe, _, alice, _ = setup () in
  let low = cls hierarchy universe "low" [] in
  let high = cls hierarchy universe "high" [ "a"; "b" ] in
  let subject = Subject.make alice low in
  (* A ceiling above the clearance has no effect. *)
  let capped = Subject.with_ceiling subject high in
  check "ceiling can't raise" true
    (Security_class.equal (Subject.effective_class capped) low)

(* {1 Audit} *)

let test_audit_totals_and_ring () =
  let hierarchy, universe, _, alice, _ = setup () in
  let subject = Subject.make alice (cls hierarchy universe "high" []) in
  let log = Audit.create ~capacity:4 () in
  for i = 1 to 10 do
    Audit.record log ~subject ~object_name:(Printf.sprintf "o%d" i) ~object_id:i
      ~object_class:(cls hierarchy universe "high" []) ~mode:Access_mode.Read
      (if i mod 2 = 0 then Decision.Granted else Decision.Denied Decision.Dac_no_entry)
  done;
  Alcotest.(check int) "granted" 5 (Audit.granted_total log);
  Alcotest.(check int) "denied" 5 (Audit.denied_total log);
  Alcotest.(check int) "total" 10 (Audit.total log);
  let events = Audit.events log in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length events);
  (match events with
  | first :: _ -> Alcotest.(check string) "oldest retained" "o7" first.Audit.object_name
  | [] -> Alcotest.fail "no events");
  Audit.clear log;
  Alcotest.(check int) "cleared" 0 (Audit.total log)

let test_audit_capacity_validation () =
  match Audit.create ~capacity:0 () with
  | _ -> Alcotest.fail "zero capacity accepted"
  | exception Invalid_argument _ -> ()

(* {1 Reference monitor} *)

let test_both_layers_must_grant () =
  let hierarchy, universe, db, alice, bob = setup () in
  let monitor = Reference_monitor.create db in
  let high = cls hierarchy universe "high" [] in
  let low = cls hierarchy universe "low" [] in
  let meta_high_acl_open = Meta.make ~owner:bob ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ]) high in
  let low_subject = Subject.make alice low in
  let high_subject = Subject.make alice high in
  (* DAC grants, MAC refuses. *)
  (match Reference_monitor.decide monitor ~subject:low_subject ~meta:meta_high_acl_open ~mode:Access_mode.Read with
  | Decision.Denied (Decision.Mac_denied Mac.Read_up) -> ()
  | other ->
    Alcotest.failf "expected MAC read-up, got %s" (Format.asprintf "%a" Decision.pp other));
  (* MAC grants, DAC refuses. *)
  let meta_closed = Meta.make ~owner:bob high in
  (match Reference_monitor.decide monitor ~subject:high_subject ~meta:meta_closed ~mode:Access_mode.Read with
  | Decision.Denied Decision.Dac_no_entry -> ()
  | _ -> Alcotest.fail "expected DAC denial");
  (* Both grant. *)
  match Reference_monitor.decide monitor ~subject:high_subject ~meta:meta_high_acl_open ~mode:Access_mode.Read with
  | Decision.Granted -> ()
  | _ -> Alcotest.fail "expected grant"

let test_policy_ablation () =
  let hierarchy, universe, db, alice, bob = setup () in
  let high = cls hierarchy universe "high" [] in
  let low = cls hierarchy universe "low" [] in
  let meta = Meta.make ~owner:bob ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ]) high in
  let low_subject = Subject.make alice low in
  let try_policy policy =
    let monitor = Reference_monitor.create ~policy db in
    Decision.is_granted
      (Reference_monitor.decide monitor ~subject:low_subject ~meta ~mode:Access_mode.Read)
  in
  check "default denies read-up" false (try_policy Policy.default);
  check "dac-only grants" true (try_policy Policy.dac_only);
  check "mac-only denies" false (try_policy Policy.mac_only);
  check "unchecked grants" true (try_policy Policy.unchecked)

let test_check_audits () =
  let hierarchy, universe, db, alice, _ = setup () in
  let monitor = Reference_monitor.create db in
  let subject = Subject.make alice (cls hierarchy universe "high" []) in
  let meta = Meta.make ~owner:alice (cls hierarchy universe "high" []) in
  ignore (Reference_monitor.check monitor ~subject ~meta ~object_name:"/x" ~mode:Access_mode.Read);
  ignore (Reference_monitor.check monitor ~subject ~meta ~object_name:"/x" ~mode:Access_mode.Read);
  Alcotest.(check int) "two audit events" 2 (Audit.total (Reference_monitor.audit monitor));
  (* decide does not audit *)
  ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read);
  Alcotest.(check int) "still two" 2 (Audit.total (Reference_monitor.audit monitor))

let test_check_exn () =
  let hierarchy, universe, db, alice, bob = setup () in
  let monitor = Reference_monitor.create db in
  let subject = Subject.make alice (cls hierarchy universe "low" []) in
  let meta = Meta.make ~owner:bob (cls hierarchy universe "high" []) in
  match
    Reference_monitor.check_exn monitor ~subject ~meta ~object_name:"/x"
      ~mode:Access_mode.Read
  with
  | () -> Alcotest.fail "expected Access_denied"
  | exception Reference_monitor.Access_denied { object_name = "/x"; _ } -> ()

(* [meta] as the leaf /x under a root everyone may list: an ACL
   replacement goes through the resolver's [Administrate] check. *)
let x = Path.of_string "/x"

let resolver_over hierarchy universe db meta =
  let root_meta =
    Meta.make ~owner:(Principal.individual "root")
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (Security_class.bottom hierarchy universe)
  in
  let ns = Namespace.create ~root_meta () in
  (match Namespace.add_leaf ns x ~meta () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add /x: %a" Namespace.pp_error e);
  Resolver.create (Reference_monitor.create db) ns

let administered = function
  | Ok () -> true
  | Error (Resolver.Denied _) -> false
  | Error (Resolver.Name_error e) -> Alcotest.failf "/x: %a" Namespace.pp_error e

let test_set_acl_requires_administrate () =
  let hierarchy, universe, db, alice, bob = setup () in
  let high = cls hierarchy universe "high" [] in
  let meta = Meta.make ~owner:bob high in
  let resolver = resolver_over hierarchy universe db meta in
  let alice_subject = Subject.make alice high in
  let bob_subject = Subject.make bob high in
  let new_acl = Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] in
  let acl () =
    (Namespace.meta (Result.get_ok (Namespace.find (Resolver.namespace resolver) x))).Meta.acl
  in
  (* Alice holds no administrate right. *)
  check "non-admin refused" false
    (administered (Resolver.set_acl resolver ~subject:alice_subject x new_acl));
  check "acl unchanged" true (Acl.equal (acl ()) (Acl.owner_default bob));
  (* The owner does. *)
  check "owner admitted" true
    (administered (Resolver.set_acl resolver ~subject:bob_subject x new_acl));
  check "acl replaced" true (Acl.equal (acl ()) new_acl)

let test_owner_lockout_is_possible () =
  (* Replacing the ACL can remove the owner's own administrate right:
     discretionary control follows the ACL, not ownership. *)
  let hierarchy, universe, db, _, bob = setup () in
  let high = cls hierarchy universe "high" [] in
  let meta = Meta.make ~owner:bob high in
  let resolver = resolver_over hierarchy universe db meta in
  let bob_subject = Subject.make bob high in
  let lockout = Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] in
  check "first replace admitted" true
    (administered (Resolver.set_acl resolver ~subject:bob_subject x lockout));
  check "locked-out owner refused" false
    (administered (Resolver.set_acl resolver ~subject:bob_subject x (Acl.owner_default bob)))

let test_trusted_subject_writes_down () =
  let hierarchy, universe, db, alice, bob = setup () in
  let monitor = Reference_monitor.create db in
  let high = cls hierarchy universe "high" [] in
  let low = cls hierarchy universe "low" [] in
  let meta = Meta.make ~owner:bob ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Write ] ]) low in
  let normal = Subject.make alice high in
  let trusted = Subject.make ~trusted:true alice high in
  check "normal write-down denied" false
    (Decision.is_granted (Reference_monitor.decide monitor ~subject:normal ~meta ~mode:Access_mode.Write));
  check "trusted write-down allowed" true
    (Decision.is_granted (Reference_monitor.decide monitor ~subject:trusted ~meta ~mode:Access_mode.Write));
  (* Trust does not bypass DAC. *)
  let meta_closed = Meta.make ~owner:bob low in
  check "trusted still bound by DAC" false
    (Decision.is_granted
       (Reference_monitor.decide monitor ~subject:trusted ~meta:meta_closed ~mode:Access_mode.Write))

let test_check_attach () =
  let hierarchy, universe, db, alice, bob = setup () in
  let monitor = Reference_monitor.create db in
  let high = cls hierarchy universe "high" [] in
  let low = cls hierarchy universe "low" [] in
  let parent_open =
    Meta.make ~owner:bob ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Write ] ]) low
  in
  let high_subject = Subject.make alice high in
  let low_subject = Subject.make alice low in
  let child_high = Meta.make ~owner:alice high in
  let child_low = Meta.make ~owner:alice low in
  let check_attach =
    Reference_monitor.check_attach monitor (Reference_monitor.policy monitor)
      (Principal.Db.snapshot db)
  in
  (* Create at or above your own class: fine. *)
  check "low creates low child" true
    (Decision.is_granted
       (check_attach ~subject:low_subject ~parent:parent_open ~child:child_low ~object_name:"/p/c"));
  check "low creates high child" true
    (Decision.is_granted
       (check_attach ~subject:low_subject ~parent:parent_open ~child:child_high
          ~object_name:"/p/c"));
  (* Creating below your class would be a write-down. *)
  check "high creates low child denied" false
    (Decision.is_granted
       (check_attach ~subject:high_subject ~parent:parent_open ~child:child_low
          ~object_name:"/p/c"));
  (* And DAC write on the parent is required. *)
  let parent_closed = Meta.make ~owner:bob low in
  check "closed parent refuses" false
    (Decision.is_granted
       (check_attach ~subject:low_subject ~parent:parent_closed ~child:child_low
          ~object_name:"/p/c"))

let suite =
  [
    Alcotest.test_case "subject effective class" `Quick test_subject_effective_class;
    Alcotest.test_case "ceiling cannot raise" `Quick test_subject_ceiling_cannot_raise;
    Alcotest.test_case "audit totals and ring" `Quick test_audit_totals_and_ring;
    Alcotest.test_case "audit capacity" `Quick test_audit_capacity_validation;
    Alcotest.test_case "both layers must grant" `Quick test_both_layers_must_grant;
    Alcotest.test_case "policy ablation" `Quick test_policy_ablation;
    Alcotest.test_case "check audits" `Quick test_check_audits;
    Alcotest.test_case "check_exn" `Quick test_check_exn;
    Alcotest.test_case "set_acl needs administrate" `Quick test_set_acl_requires_administrate;
    Alcotest.test_case "owner lockout possible" `Quick test_owner_lockout_is_possible;
    Alcotest.test_case "trusted subject" `Quick test_trusted_subject_writes_down;
    Alcotest.test_case "attach rule" `Quick test_check_attach;
  ]

let test_audit_exact_capacity () =
  let hierarchy, universe, _, alice, _ = setup () in
  let subject = Subject.make alice (cls hierarchy universe "high" []) in
  let klass = cls hierarchy universe "high" [] in
  let log = Audit.create ~capacity:3 () in
  for i = 1 to 3 do
    Audit.record log ~subject ~object_name:(Printf.sprintf "o%d" i) ~object_id:i
      ~object_class:klass ~mode:Access_mode.Read Decision.Granted
  done;
  (* Exactly at capacity: all three retained, in order. *)
  Alcotest.(check (list string)) "all retained" [ "o1"; "o2"; "o3" ]
    (List.map (fun e -> e.Audit.object_name) (Audit.events log));
  Audit.record log ~subject ~object_name:"o4" ~object_id:4 ~object_class:klass
    ~mode:Access_mode.Read Decision.Granted;
  Alcotest.(check (list string)) "oldest dropped" [ "o2"; "o3"; "o4" ]
    (List.map (fun e -> e.Audit.object_name) (Audit.events log))

let test_audit_capacity_interleaved () =
  (* Retention is [capacity] events of the whole log, not per subject:
     six subjects interleave their records, and only the eight newest
     by sequence number survive, whatever the host's core count. *)
  let hierarchy, universe, _, _, _ = setup () in
  let klass = cls hierarchy universe "high" [] in
  let subjects =
    Array.init 6 (fun i -> Subject.make (Principal.individual (Printf.sprintf "s%d" i)) klass)
  in
  let log = Audit.create ~capacity:8 () in
  for i = 0 to 39 do
    Audit.record log ~subject:subjects.(i mod 6) ~object_name:(Printf.sprintf "o%d" i)
      ~object_id:i ~object_class:klass ~mode:Access_mode.Read Decision.Granted
  done;
  let seqs events = List.map (fun e -> e.Audit.seq) events in
  Alcotest.(check (list int)) "the 8 newest" (List.init 8 (fun i -> 32 + i))
    (seqs (Audit.events log));
  Alcotest.(check (list int)) "tail of 3" [ 37; 38; 39 ] (seqs (Audit.tail log ~count:3));
  Alcotest.(check (list int))
    "tail capped at capacity"
    (List.init 8 (fun i -> 32 + i))
    (seqs (Audit.tail log ~count:100));
  Alcotest.(check int) "totals still count everything" 40 (Audit.total log)

let test_decision_equal () =
  let open Decision in
  check "granted" true (equal Granted Granted);
  check "same denial" true (equal (Denied Dac_no_entry) (Denied Dac_no_entry));
  check "different denial" false
    (equal (Denied Dac_no_entry) (Denied (Mac_denied Mac.Read_up)));
  check "mac variants" false
    (equal (Denied (Mac_denied Mac.Read_up)) (Denied (Mac_denied Mac.Write_down)));
  check "who compared" true
    (equal
       (Denied (Dac_explicit_deny (Acl.Individual (Principal.individual "x"))))
       (Denied (Dac_explicit_deny (Acl.Individual (Principal.individual "x")))));
  check "who differs" false
    (equal
       (Denied (Dac_explicit_deny (Acl.Individual (Principal.individual "x"))))
       (Denied (Dac_explicit_deny Acl.Everyone)));
  check "result roundtrip" true
    (equal (of_result (to_result (Denied Not_an_object))) (Denied Not_an_object))

let test_policy_pp () =
  let text = Format.asprintf "%a" Policy.pp Policy.default in
  check "mentions dac" true (String.length text > 0);
  Alcotest.(check string) "default flags"
    "{dac=true; mac=true; integrity=true; overwrite=strict}" text

let suite =
  suite
  @ [
      Alcotest.test_case "audit exact capacity" `Quick test_audit_exact_capacity;
      Alcotest.test_case "audit capacity with interleaved subjects" `Quick
        test_audit_capacity_interleaved;
      Alcotest.test_case "decision equal" `Quick test_decision_equal;
      Alcotest.test_case "policy pp" `Quick test_policy_pp;
    ]
