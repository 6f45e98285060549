(* Multi-domain stress suite for the domain-safe reference monitor.

   Four reader domains replay seeded check-only Opstream streams
   against one shared monitor while a mutator domain churns ACLs,
   classes, group memberships and the active policy.  Invariants:

   - no crash and no torn state (the data-then-generation publication
     order of Meta/Principal.Db, the compiled-ACL slot on each object's
     metadata and the interned-id memo on each shared subject);
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
  let barrier_meta = ref (Meta.make ~owner:warden ~acl:allow_read bottom) in
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
          Reference_monitor.check monitor ~subject:observer ~meta:!barrier_meta
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
          env.Opstream.metas.(object_) <- Meta.with_acl env.Opstream.metas.(object_) acl
        | Opstream.Set_class { object_; klass } ->
          env.Opstream.metas.(object_) <- Meta.with_klass env.Opstream.metas.(object_) klass
        | Opstream.Set_integrity { object_; integrity } ->
          env.Opstream.metas.(object_) <-
            Meta.with_integrity env.Opstream.metas.(object_) integrity
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
      barrier_meta := Meta.with_acl !barrier_meta deny_read;
      Atomic.set barrier_round round;
      while Array.exists (fun ack -> Atomic.get ack < round) acks do
        Domain.cpu_relax ()
      done;
      barrier_meta := Meta.with_acl !barrier_meta allow_read
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
   pinned handles while a mutator flips proc ACLs and republishes the
   policy.  Invariants:

   - revocation barrier: the mutator revokes [Execute] on the barrier
     proc {e before} publishing the round number, so every caller's
     next handle call on the barrier — observed strictly inside the
     deny window — must refuse; a grant would be a kept value
     surviving a revocation;
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
  Array.iteri
    (fun i path -> install path (Meta.make ~owner:admin ~acl:(open_acl ()) bottom) (Value.int i))
    proc_paths;
  let ns = Kernel.namespace kernel in
  let publish_acl path acl =
    Namespace.publish ns (Result.get_ok (Namespace.find ns path)) (fun meta ->
        Meta.with_acl meta acl)
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
    (* Callers open their handles under the initial all-open ACLs.  A
       flip that landed first would refuse an open, kill that caller
       and leave this loop waiting for its ack forever. *)
    while Atomic.get opened < callers do
      Domain.cpu_relax ()
    done;
    for round = 1 to handle_rounds do
      for m = 0 to n_procs - 1 do
        publish_acl proc_paths.(m)
          (if (round + m) land 1 = 0 then open_acl () else list_only_acl ())
      done;
      (* Re-installing the same policy still publishes a new value. *)
      Reference_monitor.set_policy (Kernel.monitor kernel) Policy.default;
      (* Revoke first, publish the round after: a caller that observes
         the round number observes the revocation too. *)
      publish_acl barrier_path (deny_exec_acl ());
      Atomic.set barrier_round round;
      while Array.exists (fun ack -> Atomic.get ack < round) acks do
        Domain.cpu_relax ()
      done;
      publish_acl barrier_path (open_acl ())
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

(* {1 Capability handles under membership churn}

   Four caller domains call handles on procs whose ACL denies the
   group [blocked], while a mutator churns bystanders through teams
   and through [blocked] itself, edits no caller's row directly, and
   revokes each round by nesting the callers' own group under
   [blocked] — so a caller's row moves only through a group edge.
   Invariants:

   - revocation barrier: the edge lands before the round number is
     published, so every caller's next handle call must refuse; a grant
     would be a row test passing on a row that moved;
   - counter conservation, as above;
   - the bystander churn kept grants fresh (hits across edits) and the
     revocations forced re-checks (stale calls). *)

let membership_rounds = 30

let test_handle_callers_vs_membership_mutator () =
  let module Kernel = Exsec_extsys.Kernel in
  let module Service = Exsec_extsys.Service in
  let module Value = Exsec_extsys.Value in
  let module Metrics = Exsec_obs.Metrics in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let blocked = Principal.group "blocked" and crew = Principal.group "crew" in
  let teams = Array.init 4 (fun t -> Principal.group (Printf.sprintf "team%d" t)) in
  let bystanders =
    Array.init 32 (fun b -> Principal.Ind (Principal.individual (Printf.sprintf "by%d" b)))
  in
  let caller_inds =
    Array.init callers (fun i -> Principal.individual (Printf.sprintf "caller%d" i))
  in
  (* Everyone registered up front: churn after this point only edits
     memberships. *)
  Principal.Db.add_group db blocked;
  Array.iter (Principal.Db.add_group db) teams;
  Array.iter (fun ind -> Principal.Db.add_member db crew (Principal.Ind ind)) caller_inds;
  Array.iter (fun who -> Principal.Db.add_member db teams.(0) who) bystanders;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let acl =
    Acl.of_entries
      [
        Acl.deny (Acl.Group blocked) [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ]
  in
  let n_procs = 4 in
  let proc_paths =
    Array.init n_procs (fun i -> Path.of_string (Printf.sprintf "/svc/m%d" i))
  in
  Array.iteri
    (fun i path ->
      match
        Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) path
          ~meta:(Meta.make ~owner:admin ~acl bottom)
          (Service.proc "m" 0 (Service.const (Value.int i)))
      with
      | Ok () -> ()
      | Error e -> failwith (Service.error_to_string e))
    proc_paths;
  let round_published = Atomic.make 0 in
  let acks = Array.init callers (fun _ -> Atomic.make 0) in
  let opened = Atomic.make 0 in
  let stop = Atomic.make false in
  Metrics.set_enabled true;
  let before = Metrics.snapshot () in
  let run_caller i =
    let subject = Subject.make caller_inds.(i) bottom in
    let handles =
      Array.map
        (fun path ->
          match Kernel.open_handle kernel ~subject ~caller:"stress" path with
          | Ok h -> h
          | Error e -> failwith (Service.error_to_string e))
        proc_paths
    in
    Atomic.incr opened;
    let stale_grants = ref 0 in
    let my_ack = ref 0 in
    let pos = ref 0 in
    while not (Atomic.get stop) do
      let round = Atomic.get round_published in
      let result = Kernel.call_handle kernel handles.(!pos land (n_procs - 1)) [] in
      incr pos;
      if round > !my_ack then begin
        (* Read the round first, call after: the edge was already in
           place, so this call must refuse. *)
        (match result with
        | Ok _ -> incr stale_grants
        | Error _ -> ());
        my_ack := round;
        Atomic.set acks.(i) round
      end
    done;
    !stale_grants
  in
  let run_mutator () =
    while Atomic.get opened < callers do
      Domain.cpu_relax ()
    done;
    for round = 1 to membership_rounds do
      (* Bystander churn: moves rows, never a caller's. *)
      for k = 0 to 15 do
        let who = bystanders.((round + k) mod Array.length bystanders) in
        let team = teams.((round + k) mod Array.length teams) in
        if k land 1 = 0 then begin
          Principal.Db.add_member db team who;
          Principal.Db.add_member db blocked who
        end
        else begin
          Principal.Db.remove_member db team who;
          Principal.Db.remove_member db blocked who
        end
      done;
      (* Revoke through the group edge, publish the round after. *)
      Principal.Db.add_member db blocked (Principal.Grp crew);
      Atomic.set round_published round;
      while Array.exists (fun ack -> Atomic.get ack < round) acks do
        Domain.cpu_relax ()
      done;
      Principal.Db.remove_member db blocked (Principal.Grp crew)
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
    (Array.for_all (fun ack -> Atomic.get ack = membership_rounds) acks);
  Alcotest.(check int)
    "handle.calls = hits + stale + use_after_close"
    (delta "handle.calls")
    (delta "handle.hits" + delta "handle.stale" + delta "handle.use_after_close");
  check "revocations forced re-checks" true (delta "handle.stale" > 0);
  check "grants stayed fresh across churn" true (delta "handle.hits" > 0)

(* {1 One snapshot per resolution}

   A writer domain toggles alice in and out of [g] while the test
   domain resolves two targets under [/svc/g], whose [List] needs [g].
   [p] grants [Execute] to [g]; [q] denies it to [g] and grants it to
   everyone.  Under any one membership state, [p] is either denied at
   [/svc/g] or granted, and [q] is denied at one of the two.  A
   resolution that decided its levels under two states could be
   admitted through [/svc/g] and then denied at [p], or admitted
   through [/svc/g] as a member and granted [q] as a non-member.  A
   walk whose levels each read the snapshot makes, on a 2-core host, a
   handful of such decisions per run in the dev profile and thousands
   in the release profile.  On a one-core host the writer rarely runs
   between two levels of one resolution, so the case passes there
   either way. *)

let test_resolution_one_snapshot () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" and alice = Principal.individual "alice" in
  let g = Principal.group "g" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  Principal.Db.add_group db g;
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let meta entries = Meta.make ~owner:admin ~acl:(Acl.of_entries entries) bottom in
  let everyone_lists = meta [ Acl.allow Acl.Everyone [ Access_mode.List ] ] in
  let ns = Namespace.create ~root_meta:everyone_lists () in
  let added = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%a" Namespace.pp_error e
  in
  added (Namespace.add_dir ns (Path.of_string "/svc") ~meta:everyone_lists);
  added
    (Namespace.add_dir ns (Path.of_string "/svc/g")
       ~meta:(meta [ Acl.allow (Acl.Group g) [ Access_mode.List ] ]));
  let p = Path.of_string "/svc/g/p" and q = Path.of_string "/svc/g/q" in
  added
    (Namespace.add_leaf ns p ~meta:(meta [ Acl.allow (Acl.Group g) [ Access_mode.Execute ] ]) ());
  added
    (Namespace.add_leaf ns q
       ~meta:
         (meta
            [
              Acl.deny (Acl.Group g) [ Access_mode.Execute ];
              Acl.allow Acl.Everyone [ Access_mode.Execute ];
            ])
       ());
  let r = Resolver.create (Reference_monitor.create db) ns in
  let subject = Subject.make alice bottom in
  let stop = Atomic.make false and toggles = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Principal.Db.add_member db g (Principal.Ind alice);
          Principal.Db.remove_member db g (Principal.Ind alice);
          Atomic.incr toggles
        done)
  in
  let p_denied_at_p = ref 0 and q_granted = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join writer)
    (fun () ->
      while Atomic.get toggles = 0 do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 100_000 do
        (match Resolver.resolve r ~subject ~mode:Access_mode.Execute p with
        | Error (Resolver.Denied { at; _ }) when Path.equal at p -> incr p_denied_at_p
        | Ok _ | Error _ -> ());
        match Resolver.resolve r ~subject ~mode:Access_mode.Execute q with
        | Ok _ -> incr q_granted
        | Error _ -> ()
      done);
  Alcotest.(check int) "p never denied at /svc/g/p" 0 !p_denied_at_p;
  Alcotest.(check int) "q never granted" 0 !q_granted

(* {1 One snapshot per resolver mutation}

   The same writer, against the resolver's mutations.  The root lists
   to everyone, [/svc] lists to [g], and [/svc/d] allows [g] [List] but
   denies it [Write] and [Administrate], which it allows everyone;
   everyone may delete [/svc/d/v].  Each mutation walks through [/svc],
   which needs alice in [g], and ends on a [Write] (the attach rule) or
   [Administrate] check at [/svc/d], which needs her out of it, so no
   one membership state admits any of them.  A mutation whose last
   check read a snapshot of its own was granted tens of thousands of
   times per 100,000 tries on an idle 2-core host in the dev profile.
   With both domains on one CPU the writer runs inside that window only
   when the scheduler preempts the test domain there, and the same code
   was granted a handful of times per operation per run; the case can
   pass there by chance.  A grant is undone, so every try starts from
   the fixture. *)

let test_mutation_one_snapshot () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" and alice = Principal.individual "alice" in
  let g = Principal.group "g" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  Principal.Db.add_group db g;
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let meta entries = Meta.make ~owner:admin ~acl:(Acl.of_entries entries) bottom in
  let ns = Namespace.create ~root_meta:(meta [ Acl.allow Acl.Everyone [ Access_mode.List ] ]) () in
  let added = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%a" Namespace.pp_error e
  in
  let d = Path.of_string "/svc/d" in
  let v = Path.of_string "/svc/d/v" and w = Path.of_string "/svc/d/w" in
  added
    (Namespace.add_dir ns (Path.of_string "/svc")
       ~meta:(meta [ Acl.allow (Acl.Group g) [ Access_mode.List ] ]));
  let d_acl =
    Acl.of_entries
      [
        Acl.allow (Acl.Group g) [ Access_mode.List ];
        Acl.deny (Acl.Group g) [ Access_mode.Write; Access_mode.Administrate ];
        Acl.allow Acl.Everyone [ Access_mode.Write; Access_mode.Administrate ];
      ]
  in
  added (Namespace.add_dir ns d ~meta:(Meta.make ~owner:admin ~acl:d_acl bottom));
  let add_v () =
    added
      (Namespace.add_leaf ns v ~meta:(meta [ Acl.allow Acl.Everyone [ Access_mode.Delete ] ]) ())
  in
  add_v ();
  let r = Resolver.create (Reference_monitor.create db) ns in
  let subject = Subject.make alice bottom in
  (* Each row: the operation, whether it was granted, and its undo. *)
  let rows =
    [
      "remove", (fun () -> Result.is_ok (Resolver.remove r ~subject v)), add_v;
      ( "create_leaf",
        (fun () -> Result.is_ok (Resolver.create_leaf r ~subject w ~meta:(meta []) ())),
        fun () -> ignore (Namespace.remove ns w) );
      "set_acl", (fun () -> Result.is_ok (Resolver.set_acl r ~subject d d_acl)), ignore;
      "set_class", (fun () -> Result.is_ok (Resolver.set_class r ~subject d bottom)), ignore;
    ]
  in
  let stop = Atomic.make false and toggles = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Principal.Db.add_member db g (Principal.Ind alice);
          Principal.Db.remove_member db g (Principal.Ind alice);
          Atomic.incr toggles
        done)
  in
  let grants =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join writer)
      (fun () ->
        while Atomic.get toggles = 0 do
          Domain.cpu_relax ()
        done;
        List.map
          (fun (name, granted, undo) ->
            let count = ref 0 in
            for _ = 1 to 100_000 do
              if granted () then begin
                incr count;
                undo ()
              end
            done;
            name, !count)
          rows)
  in
  Alcotest.(check (list (pair string int)))
    "grants per mutation" (List.map (fun (name, _) -> name, 0) grants) grants

(* {1 A relabel and an ACL edit racing on one node both land}

   Two domains share [/x]: one publishes 20,000 distinct ACLs through
   [Resolver.set_acl], the other 20,000 distinct classes through
   [Resolver.set_class].  Each builds its value from the node's current
   one, so each must find its own last value still in place, before
   its next publication and after it: a publication that read the node
   outside the tree's lock could store a value built on one the other
   domain has since replaced, dropping that domain's edit. *)

let test_relabel_beside_acl_edit () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] and universe = Category.universe [ "c" ] in
  let bottom = Security_class.bottom hierarchy universe in
  let acl () =
    Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ]
  in
  let ns = Namespace.create ~root_meta:(Meta.make ~owner:admin ~acl:(acl ()) bottom) () in
  let x = Path.of_string "/x" in
  let node = Result.get_ok (Namespace.add_leaf ns x ~meta:(Meta.make ~owner:admin ~acl:(acl ()) bottom) ()) in
  let r = Resolver.create (Reference_monitor.create db) ns in
  let admin_sub = Subject.make ~trusted:true admin (Security_class.top hierarchy universe) in
  let edits = 20_000 in
  let run publish field fresh =
    let lost = ref 0 and last = ref (field (Namespace.meta node)) in
    for i = 1 to edits do
      if field (Namespace.meta node) != !last then incr lost;
      let value = fresh i in
      if Result.is_error (publish value) then Alcotest.fail "publication refused";
      if field (Namespace.meta node) != value then incr lost;
      last := value
    done;
    !lost, !last
  in
  let relabels =
    Domain.spawn (fun () ->
        run
          (Resolver.set_class r ~subject:admin_sub x)
          (fun meta -> meta.Meta.klass)
          (fun i ->
            Security_class.make
              (Level.of_name_exn hierarchy (if i land 1 = 0 then "hi" else "lo"))
              (Category.of_names universe [ "c" ])))
  in
  let acl_lost, last_acl =
    run (Resolver.set_acl r ~subject:admin_sub x) (fun meta -> meta.Meta.acl) (fun _ -> acl ())
  in
  let class_lost, last_class = Domain.join relabels in
  Alcotest.(check int) "ACL edits lost" 0 acl_lost;
  Alcotest.(check int) "relabels lost" 0 class_lost;
  check "the last ACL landed" true ((Namespace.meta node).Meta.acl == last_acl);
  check "the last class landed" true ((Namespace.meta node).Meta.klass == last_class)

(* {1 A handle keeps the row its decision read}

   [/svc/p] allows [g] [List] and [Execute].  A writer toggles alice in
   and out of [g] while she opens 20,000 handles on [p], and stops with
   her out of it.  Every handle that opened was admitted while she was
   in [g], so her row has moved since its decision and its next call
   must fail closed into the checked path, which refuses.  Rows come
   back physically (every emptied row is the one shared empty array):
   a grant that kept her row from another snapshot than the one its
   decision read, an empty one read before she joined, would test
   fresh again once she left, and serve. *)

let test_handle_keeps_decision_row () =
  let module Kernel = Exsec_extsys.Kernel in
  let module Service = Exsec_extsys.Service in
  let module Value = Exsec_extsys.Value in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" and alice = Principal.individual "alice" in
  let g = Principal.group "g" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  Principal.Db.add_group db g;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let p = Path.of_string "/svc/p" in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) p
       ~meta:
         (Meta.make ~owner:admin
            ~acl:
              (Acl.of_entries
                 [ Acl.allow (Acl.Group g) [ Access_mode.List; Access_mode.Execute ] ])
            bottom)
       (Service.proc "p" 0 (Service.const (Value.int 1)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" (Service.error_to_string e));
  let subject = Subject.make alice bottom in
  let stop = Atomic.make false and toggles = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Principal.Db.add_member db g (Principal.Ind alice);
          Principal.Db.remove_member db g (Principal.Ind alice);
          Atomic.incr toggles
        done)
  in
  let kept = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join writer)
    (fun () ->
      while Atomic.get toggles = 0 do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 20_000 do
        match Kernel.open_handle kernel ~subject ~caller:"alice" p with
        | Ok h -> kept := h :: !kept
        | Error _ -> ()
      done);
  let served = List.filter (fun h -> Result.is_ok (Kernel.call_handle kernel h [])) !kept in
  Alcotest.(check int) "kept handles served once alice left g" 0 (List.length served)

(* {1 Directories shared between domains}

   Walks take no lock and inserts and removals take their tree's. *)

let open_meta () =
  Meta.make ~owner:(Principal.individual "admin")
    ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ])
    (Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe []))

let added = function
  | Ok node -> node
  | Error e -> Alcotest.failf "%a" Namespace.pp_error e

(* A writer domain adds 20,000 fresh names to [/d] and then removes
   them, round after round, while the test domain resolves the 64
   pre-existing names [/d/x0] ... [/d/x63] in turn, unchecked through
   [Namespace.find] and checked through [Resolver.resolve].  No [x]
   name is ever removed, so every miss is a walk that read the
   directory half-way through a write.  A table that stores its new,
   empty bucket array before refilling it (as [Stdlib.Hashtbl.resize]
   does) hides every name whose bucket it has not refilled yet; it
   missed thousands of times per run on a 2-core host.  The writer
   starts once the reader is probing; on a one-core host it rarely
   runs inside a growth, so the case can pass there by chance. *)

let test_walk_beside_growing_directory () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db alice;
  let meta = open_meta () in
  let ns = Namespace.create ~root_meta:meta () in
  let d = added (Namespace.add_dir ns (Path.of_string "/d") ~meta) in
  let xs =
    Array.init 64 (fun i ->
        Namespace.path (added (Namespace.add_leaf_at ns d (Printf.sprintf "x%d" i) ~meta ())))
  in
  let r = Resolver.create (Reference_monitor.create db) ns in
  let subject = Subject.make alice meta.Meta.klass in
  let reading = Atomic.make false and written = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set written true)
          (fun () ->
            while not (Atomic.get reading) do
              Domain.cpu_relax ()
            done;
            for round = 1 to 5 do
              let names = List.init 20_000 (Printf.sprintf "n%d-%d" round) in
              List.iter (fun name -> ignore (added (Namespace.add_leaf_at ns d name ~meta ()))) names;
              List.iter
                (fun name -> Result.get_ok (Namespace.remove ns (Path.child (Namespace.path d) name)))
                names
            done))
  in
  let misses = ref 0 in
  Atomic.set reading true;
  while not (Atomic.get written) do
    Array.iter
      (fun x ->
        (match Namespace.find ns x with
        | Ok _ -> ()
        | Error _ -> incr misses);
        match Resolver.resolve r ~subject ~mode:Access_mode.Read x with
        | Ok _ -> ()
        | Error _ -> incr misses)
      xs
  done;
  Domain.join writer;
  Alcotest.(check int) "walks that missed a name of /d" 0 !misses

(* Two domains insert 20,000 distinct names each into one directory at
   once.  The membership test, the insert and the node count of each
   run under the tree's lock, so after the joins every name is found
   and [size] counts each once.  Without the lock, inserts into one
   slot overwrote each other's heads and lost names. *)

let test_concurrent_inserts () =
  let meta = open_meta () in
  let ns = Namespace.create ~root_meta:meta () in
  let d = added (Namespace.add_dir ns (Path.of_string "/d") ~meta) in
  let batches = List.map (fun prefix -> List.init 20_000 (Printf.sprintf "%s%d" prefix)) [ "a"; "b" ] in
  let ready = Atomic.make 0 in
  let insert names () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.iter (fun name -> ignore (added (Namespace.add_leaf_at ns d name ~meta ()))) names
  in
  List.iter Domain.join (List.map (fun names -> Domain.spawn (insert names)) batches);
  let lost =
    List.filter
      (fun name -> not (Namespace.mem ns (Path.child (Namespace.path d) name)))
      (List.concat batches)
  in
  Alcotest.(check (list string)) "names lost" [] lost;
  Alcotest.(check int) "size" 40_002 (Namespace.size ns)

(* One domain makes and removes [/d] while another inserts and
   removes [/d/x] by path.  The insert's walk to [/d] takes no lock, so
   a removal of [/d] can land between that walk and the locked insert;
   an insert that went ahead there would add a child no walk reaches
   and count it, and [size] would drift above the fold.  Removal
   closes the directory under the lock, so after the joins [size] is
   the fold's count.  The race needs 2 cores to show. *)

let test_insert_beside_directory_removal () =
  let meta = open_meta () in
  let ns = Namespace.create ~root_meta:meta () in
  let d = Path.of_string "/d" and x = Path.of_string "/d/x" in
  let ready = Atomic.make 0 in
  let loop step () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for _ = 1 to 200_000 do
      step ()
    done
  in
  let churn_dir () =
    ignore (Namespace.add_dir ns d ~meta);
    ignore (Namespace.remove ns d)
  in
  let churn_leaf () =
    ignore (Namespace.add_leaf ns x ~meta ());
    ignore (Namespace.remove ns x)
  in
  List.iter Domain.join [ Domain.spawn (loop churn_dir); Domain.spawn (loop churn_leaf) ];
  Alcotest.(check int) "size is the fold"
    (Namespace.fold ns ~init:0 ~f:(fun n _ -> n + 1))
    (Namespace.size ns)

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

(* Four writers lap a ring of capacity 2, 3 or 4 a thousand times per
   round while the test domain polls [tail].  A capacity of 3 has 4
   slots, so its ring laps at the slot count, not at the capacity.
   After each round the ring holds exactly the newest [capacity]
   sequence numbers; during recording every tail is strictly
   increasing, so no event is returned twice or out of order.  The writer domains are spawned once and
   started round by round, since spawning dominates a round's cost. *)
let test_audit_ring_laps () =
  let writers = 4 in
  let per_writer = 2_000 in
  let rounds = 200 in
  let owner = Principal.individual "owner" in
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let subject = Subject.make owner bottom in
  let lock = Mutex.create () in
  let started = Condition.create () in
  let round = ref 0 in
  let log = ref (Audit.create ()) in
  let writing = Atomic.make 0 in
  let writer () =
    for r = 1 to rounds do
      let audit =
        Mutex.protect lock (fun () ->
            while !round < r do
              Condition.wait started lock
            done;
            !log)
      in
      for i = 1 to per_writer do
        Audit.record audit ~subject ~object_name:"o" ~object_id:i ~object_class:bottom
          ~mode:Access_mode.Read Decision.Granted
      done;
      Atomic.decr writing
    done
  in
  let domains = List.init writers (fun _ -> Domain.spawn writer) in
  let seqs events = List.map (fun e -> e.Audit.seq) events in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  let total = writers * per_writer in
  (* Failures are collected, not raised, so the writers always finish
     their rounds and join. *)
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun problem -> problems := problem :: !problems) fmt in
  let show seqs = String.concat "; " (List.map string_of_int seqs) in
  let expect label expected got =
    if expected <> got then note "%s: expected [%s], got [%s]" label (show expected) (show got)
  in
  for r = 1 to rounds do
    let capacity = [| 2; 3; 4 |].(r mod 3) in
    let audit = Audit.create ~capacity () in
    Atomic.set writing writers;
    Mutex.protect lock (fun () ->
        log := audit;
        round := r;
        Condition.broadcast started);
    while Atomic.get writing > 0 do
      let seen = seqs (Audit.tail audit ~count:capacity) in
      if not (increasing seen && List.length seen <= capacity) then
        note "round %d: polled tail [%s]" r (show seen)
    done;
    expect
      (Printf.sprintf "round %d: events" r)
      (List.init capacity (fun i -> total - capacity + i))
      (seqs (Audit.events audit));
    expect (Printf.sprintf "round %d: tail of 1" r) [ total - 1 ]
      (seqs (Audit.tail audit ~count:1));
    expect (Printf.sprintf "round %d: total" r) [ total ] [ Audit.total audit ]
  done;
  List.iter Domain.join domains;
  Alcotest.(check (list string)) "no ring violation" [] (List.rev !problems)

let suite =
  [
    Alcotest.test_case "stress: readers vs mutator" `Quick test_stress_readers_vs_mutator;
    Alcotest.test_case "stress: handle callers vs mutator" `Quick
      test_handle_callers_vs_mutator;
    Alcotest.test_case "stress: handle callers vs membership mutator" `Quick
      test_handle_callers_vs_membership_mutator;
    Alcotest.test_case "fresh ids unique across domains" `Quick
      test_fresh_ids_unique_across_domains;
    Alcotest.test_case "audit totals conserved across domains" `Quick
      test_audit_totals_parallel;
    Alcotest.test_case "audit ring laps under domains" `Quick test_audit_ring_laps;
    Alcotest.test_case "a resolution decides under one snapshot" `Quick
      test_resolution_one_snapshot;
    Alcotest.test_case "a resolver mutation decides under one snapshot" `Quick
      test_mutation_one_snapshot;
    Alcotest.test_case "a relabel and an ACL edit racing on one node both land" `Quick
      test_relabel_beside_acl_edit;
    Alcotest.test_case "a handle keeps the row its decision read" `Quick
      test_handle_keeps_decision_row;
    Alcotest.test_case "a walk concurrent with a growing directory finds every name" `Quick
      test_walk_beside_growing_directory;
    Alcotest.test_case "concurrent inserts into one directory lose no name" `Quick
      test_concurrent_inserts;
    Alcotest.test_case "an insert beside its directory's removal counts what it adds" `Quick
      test_insert_beside_directory_removal;
  ]
