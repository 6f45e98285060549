(* Statistically careful microbenchmarks of the hot paths, via
   Bechamel (ordinary least squares on the run counter against the
   monotonic clock). *)

open Bechamel
open Toolkit
open Exsec_core
open Exsec_extsys
open Exsec_services
open Exsec_workload

let fixture () =
  let rng = Prng.create ~seed:3 in
  let db, inds, grps = Gen.principal_db rng ~individuals:64 ~groups:8 ~density:0.2 in
  let hierarchy, universe = Gen.lattice ~levels:3 ~categories:4 in
  let bottom = Security_class.bottom hierarchy universe in
  let top = Security_class.top hierarchy universe in
  let principal = List.hd inds in
  let subject = Subject.make principal top in
  let acl64 =
    Gen.acl_with_subject_at rng ~subject:principal ~mode:Access_mode.Read
      ~filler_individuals:inds ~position:63 ~length:64
  in
  let acl_first =
    Gen.acl_with_subject_at rng ~subject:principal ~mode:Access_mode.Read
      ~filler_individuals:inds ~position:0 ~length:64
  in
  let random_acl = Gen.acl rng ~individuals:inds ~groups:grps ~length:16 ~deny_fraction:0.2 in
  ignore random_acl;
  let monitor = Reference_monitor.create db in
  let meta = Meta.make ~owner:principal ~acl:acl64 bottom in
  (* Name space of depth 8. *)
  let root_meta =
    Meta.make ~owner:principal
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ])
      bottom
  in
  let ns = Namespace.create ~root_meta () in
  let resolver = Resolver.create monitor ns in
  let leaf8 = Gen.chain ns ~owner:principal ~klass:bottom ~depth:8 ~leaf:0 in
  (* Dispatcher with 32 variants. *)
  let dhier, duni = Gen.lattice ~levels:33 ~categories:0 in
  let dlevels = Array.of_list (Level.names dhier) in
  let dispatcher = Dispatcher.create () in
  let event = Path.of_string "/svc/e" in
  for i = 0 to 31 do
    Dispatcher.register dispatcher ~event
      {
        Dispatcher.owner = Printf.sprintf "ext%d" i;
        klass = Security_class.make (Level.of_name_exn dhier dlevels.(i + 1)) (Category.empty duni);
        guard = None;
        impl = (fun _ _ -> Ok Value.unit);
      }
  done;
  let caller_class = Security_class.top dhier duni in
  ( db, hierarchy, universe, subject, principal, acl64, acl_first, monitor, meta,
    resolver, leaf8, dispatcher, event, caller_class )

let kernel_fixture () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let ping = Path.of_string "/svc/ping" in
  (match
     Kernel.install_proc kernel ~subject:admin_sub ping
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "ping" 0 (Service.const Value.unit))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice_sub = Subject.make alice (Security_class.bottom hierarchy universe) in
  let linked =
    match
      Linker.link kernel ~subject:alice_sub
        (Extension.make ~name:"caller" ~author:alice ~imports:[ ping ] ())
    with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  let fs =
    match Memfs.mount kernel ~subject:admin_sub () with
    | Ok fs -> fs
    | Error e -> failwith (Service.error_to_string e)
  in
  (match Memfs.create fs ~subject:alice_sub "bench.txt" "contents" with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let log =
    match Syslog.install kernel ~subject:admin_sub () with
    | Ok log -> log
    | Error e -> failwith (Service.error_to_string e)
  in
  kernel, alice_sub, ping, linked, fs, log

let tests () =
  let ( db, hierarchy, universe, subject, principal, acl64, acl_first, monitor, meta,
        resolver, leaf8, dispatcher, event, caller_class ) =
    fixture ()
  in
  let fixture_bottom = Security_class.bottom hierarchy universe in
  let kernel, alice_sub, ping, linked, fs, log = kernel_fixture () in
  let monitor_of_kernel = Kernel.monitor kernel in
  let top = Security_class.top (Kernel.hierarchy kernel) (Kernel.universe kernel) in
  ignore top;
  let bottom_class = Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel) in
  ignore bottom_class;
  [
    Test.make ~name:"acl/hit-first-of-64"
      (Staged.stage (fun () ->
           Acl.permits ~db ~subject:principal ~mode:Access_mode.Read acl_first));
    Test.make ~name:"acl/hit-last-of-64"
      (Staged.stage (fun () ->
           Acl.permits ~db ~subject:principal ~mode:Access_mode.Read acl64));
    Test.make ~name:"mac/dominates"
      (Staged.stage (fun () ->
           Security_class.dominates (Subject.effective_class subject) fixture_bottom));
    Test.make ~name:"monitor/decide-dac+mac"
      (Staged.stage (fun () ->
           Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read));
    Test.make ~name:"path/parse-depth8"
      (Staged.stage (fun () -> Path.of_string "/a/b/c/d/e/f/g/h"));
    Test.make ~name:"namespace/raw-find-depth8"
      (Staged.stage (fun () -> Namespace.find (Resolver.namespace resolver) leaf8));
    Test.make ~name:"resolver/checked-depth8"
      (Staged.stage (fun () ->
           Resolver.resolve resolver ~subject ~mode:Access_mode.Read leaf8));
    Test.make ~name:"dispatcher/select-of-32"
      (Staged.stage (fun () -> Dispatcher.select dispatcher ~event ~caller_class ~args:[]));
    Test.make ~name:"kernel/checked-call"
      (Staged.stage (fun () -> Kernel.call kernel ~subject:alice_sub ~caller:"b" ping []));
    Test.make ~name:"linker/call-linktime"
      (Staged.stage (fun () ->
           Reference_monitor.set_policy monitor_of_kernel Policy.default;
           Linker.Linked.call linked ~subject:alice_sub ping []));
    Test.make ~name:"memfs/read"
      (Staged.stage (fun () -> Memfs.read fs ~subject:alice_sub "bench.txt"));
    Test.make ~name:"syslog/append"
      (Staged.stage (fun () -> Syslog.append log ~subject:alice_sub "line"));
    (let policy_text =
       "levels a > b\ncategories c d\nindividual me\nclearance me = a { c }\n\
        object /fs/x {\n  owner me\n  class b { d }\n  allow user:me read write\n}\n"
     in
     Test.make ~name:"policy/parse-small"
       (Staged.stage (fun () -> Policy_text.parse policy_text)));
    (let trail =
       let log = Audit.create ~capacity:512 () in
       let hierarchy2, universe2 = Gen.lattice ~levels:3 ~categories:2 in
       let rng2 = Prng.create ~seed:9 in
       let who = Principal.individual "w" in
       for i = 1 to 256 do
         Audit.record log
           ~subject:(Subject.make who (Gen.security_class rng2 hierarchy2 universe2))
           ~object_name:(Printf.sprintf "/o%d" (i mod 8))
           ~object_id:(i mod 8)
           ~object_class:(Gen.security_class rng2 hierarchy2 universe2)
           ~mode:(if i mod 2 = 0 then Access_mode.Read else Access_mode.Write_append)
           Decision.Granted
       done;
       Audit.events log
     in
     Test.make ~name:"flow/analyse-256-events"
       (Staged.stage (fun () -> Flow.analyse trail)));
  ]

let run () =
  Format.printf "@.=== Bechamel microbenchmarks (ns/run, OLS estimate) ===@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"exsec" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Format.printf "%-34s %-14s %-8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> r
        | None -> nan
      in
      Format.printf "%-34s %a %8.4f@." name Timing.pp_ns estimate r2)
    rows
