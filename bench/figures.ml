(* The figure experiments F1-F5: parameter sweeps printed as series
   (see DESIGN.md and EXPERIMENTS.md). *)

open Exsec_core
open Exsec_extsys
open Exsec_workload

let header title = Format.printf "@.=== %s ===@." title

(* {1 F1: per-check cost of each policy layer vs ACL length} *)

let f1 () =
  header "F1  Reference-monitor check cost vs ACL length";
  let rng = Prng.create ~seed:1 in
  let db, inds, _ = Gen.principal_db rng ~individuals:64 ~groups:8 ~density:0.2 in
  let hierarchy, universe = Gen.lattice ~levels:3 ~categories:4 in
  let subject_principal = List.hd inds in
  let subject =
    Subject.make subject_principal
      (Security_class.make (Level.top hierarchy) (Category.full universe))
  in
  let policies =
    [
      "none", Policy.unchecked;
      "dac-only", Policy.dac_only;
      "mac-only", Policy.mac_only;
      "dac+mac", Policy.default;
    ]
  in
  Format.printf "%-10s" "acl-len";
  List.iter (fun (name, _) -> Format.printf " %-12s" name) policies;
  Format.printf "@.";
  List.iter
    (fun len ->
      Format.printf "%-10d" len;
      let acl =
        Gen.acl_with_subject_at rng ~subject:subject_principal ~mode:Access_mode.Read
          ~filler_individuals:inds ~position:(len - 1) ~length:len
      in
      let meta =
        Meta.make ~owner:subject_principal ~acl
          (Security_class.bottom hierarchy universe)
      in
      List.iter
        (fun (_, policy) ->
          let monitor = Reference_monitor.create ~policy db in
          let ns =
            Timing.ns_per_op (fun () ->
                ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
          in
          Format.printf " %a  " Timing.pp_ns ns)
        policies;
      Format.printf "@.")
    [ 1; 4; 16; 64 ];
  Format.printf
    "expected shape: MAC cost flat; DAC grows with ACL length; layers compose additively@."

(* {1 F2: name resolution cost vs depth, checked vs raw} *)

let f2 () =
  header "F2  Name-space resolution cost vs path depth";
  let db = Principal.Db.create () in
  let owner = Principal.individual "owner" in
  Principal.Db.add_individual db owner;
  let hierarchy, universe = Gen.lattice ~levels:2 ~categories:1 in
  let bottom = Security_class.bottom hierarchy universe in
  let subject = Subject.make owner bottom in
  Format.printf "%-8s %-14s %-14s %-8s@." "depth" "checked" "raw-lookup" "ratio";
  List.iter
    (fun depth ->
      let monitor = Reference_monitor.create db in
      let root_meta =
        Meta.make ~owner
          ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ])
          bottom
      in
      let ns = Namespace.create ~root_meta () in
      let resolver = Resolver.create monitor ns in
      let leaf = Gen.chain ns ~owner ~klass:bottom ~depth ~leaf:0 in
      let checked =
        Timing.ns_per_op (fun () ->
            ignore (Resolver.resolve resolver ~subject ~mode:Access_mode.Read leaf))
      in
      let raw = Timing.ns_per_op (fun () -> ignore (Namespace.find ns leaf)) in
      Format.printf "%-8d %a %a %8.1fx@." depth Timing.pp_ns checked Timing.pp_ns raw
        (checked /. raw))
    [ 1; 2; 4; 8; 16; 32 ];
  Format.printf
    "expected shape: both linear in depth; checking costs a constant factor (one@.";
  Format.printf "monitor decision per traversed node), the price of section 2.3's design@."

(* {1 F3: class-indexed handler selection vs number of variants} *)

let f3 () =
  header "F3  Dispatcher handler selection vs registered variants";
  Format.printf "%-10s %-14s %-14s@." "handlers" "select" "select_all";
  let event = Path.of_string "/svc/e" in
  List.iter
    (fun n ->
      let hierarchy, universe = Gen.lattice ~levels:(n + 1) ~categories:0 in
      let level_names = Array.of_list (Level.names hierarchy) in
      let dispatcher = Dispatcher.create () in
      for i = 0 to n - 1 do
        Dispatcher.register dispatcher ~event
          {
            Dispatcher.owner = Printf.sprintf "ext%d" i;
            klass =
              Security_class.make
                (Level.of_name_exn hierarchy level_names.(i + 1))
                (Category.empty universe);
            guard = None;
            impl = (fun _ _ -> Ok Value.unit);
          }
      done;
      let caller_class = Security_class.top hierarchy universe in
      let select =
        Timing.ns_per_op (fun () ->
            ignore (Dispatcher.select dispatcher ~event ~caller_class ~args:[]))
      in
      let select_all =
        Timing.ns_per_op (fun () ->
            ignore (Dispatcher.select_all dispatcher ~event ~caller_class ~args:[]))
      in
      Format.printf "%-10d %a %a@." n Timing.pp_ns select Timing.pp_ns select_all)
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  Format.printf
    "expected shape: select is linear (one maximal-candidate pass); select_all@.";
  Format.printf
    "is quadratic (dominance-layer ranking for broadcast order); both are@.";
  Format.printf "sub-microsecond at realistic handler counts@."

(* {1 F4: information flows blocked, MAC vs DAC-only} *)

let f4 () =
  header "F4  Illegal information flows admitted (DAC-only vs DAC+MAC)";
  Format.printf "%-12s %-10s %-12s %-16s %-16s@." "categories" "attempts" "illegal"
    "admitted (dac)" "admitted (mac)";
  let rng = Prng.create ~seed:7 in
  let db = Principal.Db.create () in
  let carol = Principal.individual "carol" in
  Principal.Db.add_individual db carol;
  let attempts = 2_000 in
  List.iter
    (fun categories ->
      let hierarchy, universe = Gen.lattice ~levels:3 ~categories in
      let open_acl =
        Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read; Access_mode.Write_append ] ]
      in
      let dac_monitor = Reference_monitor.create ~policy:Policy.dac_only db in
      let mac_monitor = Reference_monitor.create ~policy:Policy.default db in
      let illegal = ref 0 in
      let admitted_dac = ref 0 in
      let admitted_mac = ref 0 in
      for _ = 1 to attempts do
        let subject = Subject.make carol (Gen.security_class rng hierarchy universe) in
        let source = Meta.make ~owner:carol ~acl:open_acl (Gen.security_class rng hierarchy universe) in
        let sink = Meta.make ~owner:carol ~acl:open_acl (Gen.security_class rng hierarchy universe) in
        let is_illegal = not (Security_class.dominates sink.Meta.klass source.Meta.klass) in
        if is_illegal then incr illegal;
        let flows monitor =
          Decision.is_granted
            (Reference_monitor.decide monitor ~subject ~meta:source ~mode:Access_mode.Read)
          && Decision.is_granted
               (Reference_monitor.decide monitor ~subject ~meta:sink
                  ~mode:Access_mode.Write_append)
        in
        if is_illegal && flows dac_monitor then incr admitted_dac;
        if is_illegal && flows mac_monitor then incr admitted_mac
      done;
      Format.printf "%-12d %-10d %-12d %-16d %-16d@." categories attempts !illegal
        !admitted_dac !admitted_mac)
    [ 2; 4; 8; 16 ];
  Format.printf
    "expected shape: DAC alone admits every illegal flow it is asked to (the ACLs@.";
  Format.printf
    "are open); the lattice admits none — Denning's soundness, paper section 2.2@."

(* {1 F5: per-call enforcement and revocation}

   There is no link-time-only mode: a linked call is either checked in
   full or served from the import's capability handle, which
   revalidates.  The kernel has no clearance registry, so no
   certificate is issued and [Linked.call] is the checked path. *)

let f5 () =
  header "F5  Per-call import checks: checked call vs import handle, and revocation";
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
  let ext = Extension.make ~name:"caller" ~author:alice ~imports:[ ping ] () in
  let linked =
    match Linker.link kernel ~subject:alice_sub ext with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  let measure f = Timing.ns_per_op (fun () -> ignore (f ())) in
  let checked = measure (fun () -> Linker.Linked.call linked ~subject:alice_sub ping []) in
  let handle = measure (fun () -> Linker.Linked.call_import linked ping []) in
  Format.printf "%-30s %-14s@." "path" "cost/call";
  Format.printf "%-30s %a@." "checked call (Linked.call)" Timing.pp_ns checked;
  Format.printf "%-30s %a@." "import handle (call_import)" Timing.pp_ns handle;
  Format.printf "checked vs handle: %.1fx@." (checked /. handle);
  (* Revocation behaviour: withdraw Everyone's execute right. *)
  (match
     Resolver.set_acl (Kernel.resolver kernel) ~subject:admin_sub ping
       (Acl.of_entries
          [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
   with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "%a" Resolver.pp_denial e));
  let attempt label result =
    Format.printf "after revocation, %-28s %s@." label
      (match result with Ok _ -> "ADMITTED" | Error _ -> "DENIED")
  in
  attempt "checked call:" (Linker.Linked.call linked ~subject:alice_sub ping []);
  attempt "import handle:" (Linker.Linked.call_import linked ping []);
  Format.printf
    "expected shape: the handle costs a small fraction of the checked call, and@.";
  Format.printf
    "both deny after revocation: the handle's generation sweep sees the ACL edit@."

(* {1 F6: name-space scale} *)

let f6 () =
  header "F6  Universal name space at scale: lookup and insert vs population";
  let db = Principal.Db.create () in
  let owner = Principal.individual "owner" in
  Principal.Db.add_individual db owner;
  let hierarchy, universe = Gen.lattice ~levels:2 ~categories:1 in
  let bottom = Security_class.bottom hierarchy universe in
  let subject = Subject.make owner bottom in
  let open_meta () =
    Meta.make ~owner
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read; Access_mode.Write ] ])
      bottom
  in
  let fresh () =
    let ns = Namespace.create ~root_meta:(open_meta ()) () in
    ns, Resolver.create (Reference_monitor.create db) ns
  in
  let checked_lookup resolver targets =
    let rng = Prng.create ~seed:99 in
    Timing.ns_per_op (fun () ->
        ignore
          (Resolver.resolve resolver ~subject ~mode:Access_mode.Read (Prng.choose rng targets)))
  in
  Format.printf "%-10s %-10s %-14s %-14s@." "nodes" "depth" "checked-lookup" "insert";
  List.iter
    (fun (depth, fanout) ->
      let ns, resolver = fresh () in
      let leaves = Gen.populate_tree ns ~owner ~klass:bottom ~depth ~fanout ~leaf:(fun _ -> 0) in
      let lookup = checked_lookup resolver (Array.of_list leaves) in
      let counter = ref 0 in
      let meta () =
        Meta.make ~owner
          ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ])
          bottom
      in
      let insert =
        Timing.ns_per_op ~batch:200 ~batches:5 (fun () ->
            incr counter;
            ignore
              (Resolver.create_leaf resolver ~subject
                 (Path.of_string (Printf.sprintf "/new%d" !counter))
                 ~meta:(meta ()) 0))
      in
      Format.printf "%-10d %-10d %a %a@." (Namespace.size ns) depth Timing.pp_ns lookup
        Timing.pp_ns insert)
    [ 2, 4; 3, 6; 3, 12; 4, 10 ];
  (* The rows above grow depth and fanout together, so they cannot tell
     a directory's width from the walk's depth.  Here the depth stays at
     3 while the directory holding the targets widens: a walk that
     probes each directory's hash table stays flat in the width, one
     that scans or sorts the entries grows with it. *)
  Format.printf "@.%-10s %-10s %-14s %-14s@." "width" "depth" "checked-lookup" "raw-find";
  List.iter
    (fun width ->
      let ns, resolver = fresh () in
      let first = Gen.chain ns ~owner ~klass:bottom ~depth:2 ~leaf:0 in
      let dir = Option.get (Path.parent first) in
      let targets =
        Array.init width (fun i ->
            if i = 0 then first
            else begin
              let path = Path.child dir (Printf.sprintf "e%d" i) in
              ignore (Namespace.add_leaf ns path ~meta:(open_meta ()) i);
              path
            end)
      in
      (* Compile and memoize every target's ACL before timing, so the
         rows differ in width alone. *)
      Array.iter
        (fun target ->
          ignore (Resolver.resolve resolver ~subject ~mode:Access_mode.Read target))
        targets;
      let lookup = checked_lookup resolver targets in
      let rng = Prng.create ~seed:99 in
      let raw = Timing.ns_per_op (fun () -> ignore (Namespace.find ns (Prng.choose rng targets))) in
      Format.printf "%-10d %-10d %a %a@." width (Path.depth first) Timing.pp_ns lookup
        Timing.pp_ns raw)
    [ 4; 64; 512; 4096 ];
  Format.printf
    "expected shape: lookup cost tracks depth, not population or directory@.";
  Format.printf
    "width (one hash probe per level); insertion is flat — the single tree scales@."
