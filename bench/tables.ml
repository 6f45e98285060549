(* The table experiments T1-T4 (see DESIGN.md and EXPERIMENTS.md). *)

open Exsec_core
open Exsec_extsys
open Exsec_baselines
open Exsec_workload

let header = Timing.header

(* {1 T1: the paper's worked applet example (section 2.2)} *)

let t1 () =
  header "T1  Applet file-sharing matrix (paper section 2.2)";
  let scenario = Scenario.build () in
  Format.printf "%-9s" "subject";
  List.iter (Format.printf " %-13s") Scenario.files;
  Format.printf "@.";
  let mismatches = ref 0 in
  List.iter
    (fun (subject_name, _) ->
      Format.printf "%-9s" subject_name;
      List.iter
        (fun file ->
          let expected = Scenario.expected_read ~subject_name ~file in
          let measured = Scenario.measured_read scenario ~subject_name ~file in
          if expected <> measured then incr mismatches;
          Format.printf " %-13s"
            (match measured, expected with
            | true, true -> "read"
            | false, false -> "DENIED"
            | true, false -> "read (!!)"
            | false, true -> "DENIED (!!)"))
        Scenario.files;
      Format.printf "@.")
    (Scenario.subjects scenario);
  Format.printf "paper-text matrix: %s (%d mismatches)@."
    (if !mismatches = 0 then "REPRODUCED" else "NOT reproduced")
    !mismatches

(* {1 T2: ThreadMurder containment (section 1.2)} *)

let immortal () = Thread.Runnable

let murder kernel ~subject =
  let visible =
    match
      Resolver.list_dir (Kernel.resolver kernel) ~subject (Path.of_string "/threads")
    with
    | Ok names -> names
    | Error _ -> []
  in
  List.fold_left
    (fun killed name ->
      match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
      | None -> killed
      | Some id -> (
        match Kernel.kill kernel ~subject ~victim:id with
        | Ok () -> killed + 1
        | Error _ -> killed))
    0 visible

let boot_applets () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  List.iter
    (fun name -> Principal.Db.add_individual db (Principal.individual name))
    [ "admin"; "dept1"; "dept2"; "murderer" ];
  let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
  let universe = Category.universe [ "d1"; "d2" ] in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let cls level cats =
    Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats)
  in
  kernel, cls

let run_murder ~sandboxed =
  let kernel, cls = boot_applets () in
  let subject_of name cats =
    Subject.make (Principal.individual name)
      (cls "organization" (if sandboxed then [ "d1" ] else cats))
  in
  let spawn name owner cats =
    let subject = subject_of owner cats in
    match Kernel.spawn kernel ~subject ~name ~body:immortal with
    | Ok thread ->
      (if sandboxed then
         let ns = Kernel.namespace kernel in
         match Namespace.find ns (Kernel.thread_path (Thread.id thread)) with
         | Ok node ->
           Namespace.publish ns node (fun meta ->
               Meta.with_acl meta (Acl.of_entries [ Acl.allow_all Acl.Everyone ]))
         | Error _ -> failwith "thread not published");
      thread
    | Error e -> failwith (Service.error_to_string e)
  in
  let v1 = spawn "victim-d1" "dept1" [ "d1" ] in
  let v2 = spawn "victim-d2" "dept2" [ "d2" ] in
  let murderer = subject_of "murderer" [ "d1" ] in
  let own =
    match Kernel.spawn kernel ~subject:murderer ~name:"murderer" ~body:immortal with
    | Ok thread -> thread
    | Error e -> failwith (Service.error_to_string e)
  in
  let v3 = spawn "late-victim" "dept1" [ "d1" ] in
  let killed = murder kernel ~subject:murderer in
  killed, [ v1; v2; v3; own ]

(* The same victims beside a thread whose body raises on its third
   quantum: the fault must end that thread alone, and every victim
   must still run its 100 quanta to the end. *)
let run_fault () =
  let kernel, cls = boot_applets () in
  let spawn name owner cats body =
    let subject = Subject.make (Principal.individual owner) (cls "organization" cats) in
    match Kernel.spawn kernel ~subject ~name ~body with
    | Ok thread -> thread
    | Error e -> failwith (Service.error_to_string e)
  in
  let finite () =
    let left = ref 100 in
    fun () ->
      decr left;
      if !left = 0 then Thread.Finished else Thread.Runnable
  in
  let v1 = spawn "victim-d1" "dept1" [ "d1" ] (finite ()) in
  let v2 = spawn "victim-d2" "dept2" [ "d2" ] (finite ()) in
  let quanta = ref 0 in
  let faulty =
    spawn "faulty" "murderer" [ "d1" ] (fun () ->
        incr quanta;
        if !quanta = 3 then raise Not_found else Thread.Runnable)
  in
  let v3 = spawn "late-victim" "dept1" [ "d1" ] (finite ()) in
  (* A fault that escapes the scheduler stops the run here; the
     victims it left unfinished fail the experiment below. *)
  (match Kernel.run kernel with
  | _ -> ()
  | exception e -> Format.printf "Kernel.run raised %s@." (Printexc.to_string e));
  faulty, [ v1; v2; v3 ]

let t2 () =
  header "T2  ThreadMurder containment (paper section 1.2)";
  Format.printf "%-28s %-16s %-18s@." "model" "threads killed" "victims surviving";
  let report label (killed, threads) =
    let victims = List.filteri (fun i _ -> i < 3) threads in
    let surviving = List.length (List.filter Thread.is_alive victims) in
    Format.printf "%-28s %-16d %d/3@." label killed surviving
  in
  report "java-sandbox (flat)" (run_murder ~sandboxed:true);
  report "this-paper (classes+ACLs)" (run_murder ~sandboxed:false);
  let faulty, victims = run_fault () in
  let finished = List.filter (fun thread -> Thread.state thread = Thread.Done) victims in
  let ended = List.filter (fun thread -> Thread.state thread <> Thread.Done) (faulty :: victims) in
  Format.printf "%-28s %-16d %d/3 finished (%a)@." "faulting extension"
    (List.length ended) (List.length finished) Thread.pp faulty;
  Format.printf
    "expected: the flat sandbox loses every applet (incl. one loaded later);@.";
  Format.printf "the paper's model loses only the murderer's own thread;@.";
  Format.printf "a thread that raises ends only itself: every victim finishes.@.";
  if List.length finished < 3 then
    raise (Scaling.Failed "T2: a thread beside the faulting one did not finish")

(* {1 T3: policy expressiveness across protection models (sections 1.2, 2)} *)

let models : (module Model.MODEL) list =
  [
    (module Unix_perms);
    (module Afs_acl);
    (module Nt_acl);
    (module Java_sandbox);
    (module Spin_domains);
    (module Vino_priv);
    (module Inferno_auth);
    (module Ours);
  ]

let t3 () =
  header "T3  Policy expressiveness (paper sections 1.2 and 2)";
  Format.printf "%-4s %-42s" "req" "requirement";
  List.iter (fun (module M : Model.MODEL) -> Format.printf " %-12s" M.name) models;
  Format.printf "@.";
  List.iter
    (fun (r : World.requirement) ->
      Format.printf "%-4s %-42s" r.World.r_id
        (if String.length r.World.r_title > 42 then String.sub r.World.r_title 0 42
         else r.World.r_title);
      List.iter
        (fun m -> Format.printf " %-12s" (Model.outcome_symbol (Model.evaluate m r)))
        models;
      Format.printf "@.")
    Suite.all;
  let enforced m =
    List.length (List.filter (fun r -> Model.evaluate m r = Model.Enforced) Suite.all)
  in
  Format.printf "%-4s %-42s" "" "TOTAL enforced (of 12)";
  List.iter (fun m -> Format.printf " %-12d" (enforced m)) models;
  Format.printf "@."

(* {1 T4: three prongs vs one central facility (section 1.2)} *)

let t4 () =
  header "T4  Enforcement-structure fault injection (paper section 1.2)";
  Format.printf "Per single faulty prong, the attack classes admitted:@.";
  List.iter
    (fun prong ->
      let name =
        match prong with
        | Java_sandbox.Verifier -> "verifier"
        | Java_sandbox.Class_loader -> "class loader"
        | Java_sandbox.Security_manager -> "security manager"
      in
      let admitted =
        List.filter (Java_sandbox.breached ~faulty:[ prong ]) Java_sandbox.attacks
      in
      Format.printf "  %-18s %d/%d: %s@." name (List.length admitted)
        (List.length Java_sandbox.attacks)
        (String.concat "; " (List.map (fun a -> a.Java_sandbox.a_name) admitted)))
    Java_sandbox.prongs;
  Format.printf
    "@.Monte-Carlo breach probability vs per-component bug probability p@.";
  Format.printf "(10000 trials; a breach is any attack class left open)@.";
  Format.printf "%-6s %-22s %-22s %-10s@." "p" "three prongs (measured)"
    "central monitor (meas.)" "analytic";
  let rng = Prng.create ~seed:1997 in
  let trials = 10_000 in
  List.iter
    (fun p ->
      let three_breaches = ref 0 in
      let central_breaches = ref 0 in
      for _ = 1 to trials do
        let faulty = List.filter (fun _ -> Prng.float rng < p) Java_sandbox.prongs in
        if Java_sandbox.breach_fraction ~faulty > 0.0 then incr three_breaches;
        if Prng.float rng < p then incr central_breaches
      done;
      let analytic = 1.0 -. ((1.0 -. p) ** 3.0) in
      Format.printf "%-6.2f %-22.3f %-22.3f 1-(1-p)^3 = %.3f vs p = %.2f@." p
        (float_of_int !three_breaches /. float_of_int trials)
        (float_of_int !central_breaches /. float_of_int trials)
        analytic p)
    [ 0.05; 0.10; 0.20; 0.30 ];
  Format.printf
    "expected shape: the three-prong design is strictly more exposed for every p@."
