(* Multi-domain stress suite for the domain-safe reference monitor.

   Four reader domains replay seeded check-only Opstream streams
   against one shared monitor while a mutator domain churns ACLs,
   classes, group memberships and the active policy.  Invariants:

   - no crash and no torn state (the data-then-generation publication
     order of Meta/Principal.Db, the compiled-ACL slot on each object's
     metadata and the snapshot-id memo on each shared subject);
   - revocation barrier: after the mutator revokes the barrier
     object's ACL and publishes the round number, every reader's next
     look at that object must be denied — a grant would be a stale
     compiled ACL surviving a revocation, i.e. a protection hole;
   - conservation: the audit ring's granted + denied totals equal
     checks recorded.

   This module must not [open Exsec_extsys]: that library's [Domain]
   (protection domains, after the paper) would shadow stdlib [Domain]
   (OCaml parallelism). *)

open Exsec_core
open Exsec_workload

let check = Alcotest.(check bool)

(* {1 Readers vs. mutator} *)

let readers = 4
let rounds = 40
let mutations_per_round = 20

let test_stress_readers_vs_mutator () =
  let rng = Prng.create ~seed:1997 in
  let env =
    Opstream.environment rng ~individuals:16 ~groups:4 ~subjects:12 ~objects:24
      ~levels:3 ~categories:3
  in
  let monitor = Reference_monitor.create env.Opstream.db in
  (* The barrier object and its observer live outside the generated
     environment, so its only mutations are the mutator's revocations:
     at bottom class with an unlabelled integrity slot, the observer's
     outcome hinges on the ACL alone under every DAC-enabled policy. *)
  let bottom = Security_class.bottom env.Opstream.hierarchy env.Opstream.universe in
  let warden = Principal.individual "warden" in
  let observer_ind = Principal.individual "observer" in
  Principal.Db.add_individual env.Opstream.db warden;
  Principal.Db.add_individual env.Opstream.db observer_ind;
  let observer = Subject.make observer_ind bottom in
  let allow_read = Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] in
  let deny_read = Acl.of_entries [ Acl.deny Acl.Everyone [ Access_mode.Read ] ] in
  let barrier_meta = Meta.make ~owner:warden ~acl:allow_read bottom in
  let barrier_round = Atomic.make 0 in
  let acks = Array.init readers (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let run_reader i =
    (* Each reader replays its own seeded check-only stream, cycling
       until the mutator calls time. *)
    let rng = Prng.create ~seed:(4000 + i) in
    let ops =
      Array.of_list (Opstream.generate rng env ~steps:512 ~mutation_fraction:0.0)
    in
    let checks = ref 0 in
    let stale_grants = ref 0 in
    let pos = ref 0 in
    let my_ack = ref 0 in
    while not (Atomic.get stop) do
      (match ops.(!pos) with
      | Opstream.Check { subject; object_; mode } ->
        incr checks;
        ignore
          (Reference_monitor.check monitor
             ~subject:env.Opstream.subjects.(subject)
             ~meta:env.Opstream.metas.(object_)
             ~object_name:(Printf.sprintf "obj-%d" object_)
             ~mode)
      | _ -> ());
      pos := (!pos + 1) mod Array.length ops;
      let round = Atomic.get barrier_round in
      if round > !my_ack then begin
        (* The mutator revoked before publishing [round] and re-grants
           only after every reader acknowledges, so this check runs
           strictly inside the deny window: any grant is stale. *)
        incr checks;
        let decision =
          Reference_monitor.check monitor ~subject:observer ~meta:barrier_meta
            ~object_name:"barrier" ~mode:Access_mode.Read
        in
        if Decision.is_granted decision then incr stale_grants;
        my_ack := round;
        Atomic.set acks.(i) round
      end
    done;
    !checks, !stale_grants
  in
  let run_mutator () =
    let rng = Prng.create ~seed:5077 in
    let ops =
      Array.of_list (Opstream.generate rng env ~steps:1024 ~mutation_fraction:1.0)
    in
    let pos = ref 0 in
    for round = 1 to rounds do
      for _ = 1 to mutations_per_round do
        (match ops.(!pos) with
        | Opstream.Set_acl { object_; acl } ->
          Meta.set_acl_raw env.Opstream.metas.(object_) acl
        | Opstream.Set_class { object_; klass } ->
          Meta.set_klass_raw env.Opstream.metas.(object_) klass
        | Opstream.Set_integrity { object_; integrity } ->
          Meta.set_integrity_raw env.Opstream.metas.(object_) integrity
        | Opstream.Set_policy policy ->
          (* Keep discretionary control on so the barrier's explicit
             deny stays definitive in every window. *)
          if policy.Policy.dac then Reference_monitor.set_policy monitor policy
        | Opstream.Join_group { group; ind } ->
          Principal.Db.add_member env.Opstream.db group (Principal.Ind ind)
        | Opstream.Leave_group { group; ind } ->
          Principal.Db.remove_member env.Opstream.db group (Principal.Ind ind)
        | Opstream.Check _ -> ());
        pos := (!pos + 1) mod Array.length ops
      done;
      (* Revoke first, publish the round after: a reader that observes
         the new round therefore observes the revocation too. *)
      Meta.set_acl_raw barrier_meta deny_read;
      Atomic.set barrier_round round;
      while Array.exists (fun ack -> Atomic.get ack < round) acks do
        Domain.cpu_relax ()
      done;
      Meta.set_acl_raw barrier_meta allow_read
    done;
    Atomic.set stop true
  in
  let reader_handles = List.init readers (fun i -> Domain.spawn (fun () -> run_reader i)) in
  let mutator_handle = Domain.spawn run_mutator in
  let results = List.map Domain.join reader_handles in
  Domain.join mutator_handle;
  let total_checks = List.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let total_stale = List.fold_left (fun acc (_, s) -> acc + s) 0 results in
  Alcotest.(check int) "no stale grant crossed a revocation barrier" 0 total_stale;
  check "every reader saw every barrier" true
    (Array.for_all (fun ack -> Atomic.get ack = rounds) acks);
  let audit = Reference_monitor.audit monitor in
  Alcotest.(check int)
    "audit granted + denied = checks" total_checks
    (Audit.granted_total audit + Audit.denied_total audit)

(* {1 Capability handles under parallel callers and a mutator}

   Four caller domains hammer [Kernel.call_handle] over a pool of
   pinned handles while a mutator flips proc ACLs and bumps the policy
   epoch.  Invariants:

   - revocation barrier: the mutator revokes [Execute] on the barrier
     proc {e before} publishing the round number, so every caller's
     next handle call on the barrier — observed strictly inside the
     deny window — must refuse; a grant would be a stale generation
     snapshot surviving a revocation;
   - counter conservation: handle.calls = handle.hits + handle.stale +
     handle.use_after_close, exactly, across all domains;
   - the churn actually exercised the fallback: stale revalidations
     and in-place re-mints both occurred. *)

let callers = 4
let handle_rounds = 30

let counter_of snap name =
  match List.assoc_opt name snap.Exsec_obs.Metrics.counters with
  | Some value -> value
  | None -> 0

let test_handle_callers_vs_mutator () =
  let module Kernel = Exsec_extsys.Kernel in
  let module Service = Exsec_extsys.Service in
  let module Value = Exsec_extsys.Value in
  let module Metrics = Exsec_obs.Metrics in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let caller_inds =
    Array.init callers (fun i -> Principal.individual (Printf.sprintf "caller%d" i))
  in
  Array.iter (Principal.Db.add_individual db) caller_inds;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let open_acl () =
    Acl.of_entries
      [
        Acl.allow_all (Acl.Individual admin);
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ]
  in
  let list_only_acl () =
    Acl.of_entries
      [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ]
  in
  let deny_exec_acl () =
    Acl.of_entries
      [
        Acl.allow_all (Acl.Individual admin);
        Acl.deny Acl.Everyone [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ]
  in
  let n_procs = 8 in
  let proc_paths =
    Array.init n_procs (fun i -> Path.of_string (Printf.sprintf "/svc/p%d" i))
  in
  let install path meta proc_value =
    match
      Kernel.install_proc kernel ~subject:admin_sub path ~meta
        (Exsec_extsys.Service.proc "p" 0 (Service.const proc_value))
    with
    | Ok () -> ()
    | Error e -> failwith (Service.error_to_string e)
  in
  let proc_metas =
    Array.init n_procs (fun i ->
        let meta = Meta.make ~owner:admin ~acl:(open_acl ()) bottom in
        install proc_paths.(i) meta (Value.int i);
        meta)
  in
  let barrier_path = Path.of_string "/svc/barrier" in
  let barrier_meta = Meta.make ~owner:admin ~acl:(open_acl ()) bottom in
  install barrier_path barrier_meta Value.unit;
  let barrier_round = Atomic.make 0 in
  let acks = Array.init callers (fun _ -> Atomic.make 0) in
  let opened = Atomic.make 0 in
  let stop = Atomic.make false in
  Metrics.set_enabled true;
  let before = Metrics.snapshot () in
  let run_caller i =
    let subject = Subject.make caller_inds.(i) bottom in
    let open_h path =
      match Kernel.open_handle kernel ~subject ~caller:"stress" path with
      | Ok h -> h
      | Error e -> failwith (Service.error_to_string e)
    in
    let handles = Array.map open_h proc_paths in
    let barrier_h = open_h barrier_path in
    Atomic.incr opened;
    let stale_grants = ref 0 in
    let my_ack = ref 0 in
    let pos = ref 0 in
    while not (Atomic.get stop) do
      ignore (Kernel.call_handle kernel handles.(!pos land (n_procs - 1)) []);
      incr pos;
      let round = Atomic.get barrier_round in
      if round > !my_ack then begin
        (* Inside the deny window: the handle's generation snapshot
           predates the revocation, so this call must fall into the
           checked path and refuse. *)
        (match Kernel.call_handle kernel barrier_h [] with
        | Ok _ -> incr stale_grants
        | Error _ -> ());
        my_ack := round;
        Atomic.set acks.(i) round
      end
    done;
    !stale_grants
  in
  let run_mutator () =
    let policies = [| Policy.default; Policy.with_recheck Policy.default |] in
    (* Callers open their handles under the initial all-open ACLs.  A
       flip that landed first would refuse an open, kill that caller
       and leave this loop waiting for its ack forever. *)
    while Atomic.get opened < callers do
      Domain.cpu_relax ()
    done;
    for round = 1 to handle_rounds do
      for m = 0 to n_procs - 1 do
        Meta.set_acl_raw proc_metas.(m)
          (if (round + m) land 1 = 0 then open_acl () else list_only_acl ())
      done;
      Reference_monitor.set_policy (Kernel.monitor kernel) policies.(round land 1);
      (* Revoke first, publish the round after: a caller that observes
         the round number observes the revocation too. *)
      Meta.set_acl_raw barrier_meta (deny_exec_acl ());
      Atomic.set barrier_round round;
      while Array.exists (fun ack -> Atomic.get ack < round) acks do
        Domain.cpu_relax ()
      done;
      Meta.set_acl_raw barrier_meta (open_acl ())
    done;
    Atomic.set stop true
  in
  let caller_handles = List.init callers (fun i -> Domain.spawn (fun () -> run_caller i)) in
  let mutator_handle = Domain.spawn run_mutator in
  let stale = List.fold_left (fun acc h -> acc + Domain.join h) 0 caller_handles in
  Domain.join mutator_handle;
  let after = Metrics.snapshot () in
  Metrics.set_enabled false;
  let delta name = counter_of after name - counter_of before name in
  Alcotest.(check int) "no grant crossed the revocation barrier" 0 stale;
  check "every caller saw every round" true
    (Array.for_all (fun ack -> Atomic.get ack = handle_rounds) acks);
  Alcotest.(check int)
    "handle.calls = hits + stale + use_after_close"
    (delta "handle.calls")
    (delta "handle.hits" + delta "handle.stale" + delta "handle.use_after_close");
  check "stale revalidations occurred" true (delta "handle.stale" > 0);
  check "in-place re-mints occurred" true (delta "handle.reminted" > 0)

(* {1 Atomic identity allocation} *)

let test_fresh_ids_unique_across_domains () =
  (* [Meta.make] draws identities from a process-wide atomic counter;
     flow analysis depends on identities never being reused, so
     parallel creation must never hand out a duplicate. *)
  let domains = 4 in
  let per_domain = 2000 in
  let owner = Principal.individual "owner" in
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let handles =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            List.init per_domain (fun _ -> (Meta.make ~owner bottom).Meta.id)))
  in
  let ids = List.concat_map Domain.join handles in
  let module Ints = Set.Make (Int) in
  Alcotest.(check int)
    "all identities distinct"
    (domains * per_domain)
    (Ints.cardinal (Ints.of_list ids))

(* {1 Audit ring under parallel recording} *)

let test_audit_totals_parallel () =
  let domains = 4 in
  let per_domain = 5000 in
  let audit = Audit.create ~capacity:64 () in
  let owner = Principal.individual "owner" in
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let subject = Subject.make owner bottom in
  let meta = Meta.make ~owner bottom in
  let handles =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Audit.record audit ~subject ~object_name:"o" ~object_id:meta.Meta.id
                ~object_class:bottom ~mode:Access_mode.Read
                (if i land 1 = 0 then Decision.Granted
                 else Decision.Denied Decision.Dac_no_entry)
            done))
  in
  List.iter Domain.join handles;
  Alcotest.(check int) "total conserved" (domains * per_domain) (Audit.total audit);
  Alcotest.(check int)
    "granted + denied = total"
    (Audit.total audit)
    (Audit.granted_total audit + Audit.denied_total audit);
  Alcotest.(check int) "granted half" (domains * per_domain / 2) (Audit.granted_total audit);
  Alcotest.(check int) "ring keeps capacity" 64 (List.length (Audit.events audit))

let suite =
  [
    Alcotest.test_case "stress: readers vs mutator" `Quick test_stress_readers_vs_mutator;
    Alcotest.test_case "stress: handle callers vs mutator" `Quick
      test_handle_callers_vs_mutator;
    Alcotest.test_case "fresh ids unique across domains" `Quick
      test_fresh_ids_unique_across_domains;
    Alcotest.test_case "audit totals conserved across domains" `Quick
      test_audit_totals_parallel;
  ]
