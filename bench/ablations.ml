(* Ablation experiments A1-A3: costs and consequences of individual
   design choices in the model (see EXPERIMENTS.md). *)

open Exsec_core
open Exsec_workload

let header = Timing.header
let median l = List.nth (List.sort compare l) (List.length l / 2)

(* {1 A1: audit overhead} *)

let a1 () =
  header "A1  Cost of auditing every decision (economy of mechanism's price)";
  let rng = Prng.create ~seed:21 in
  let db, inds, _ = Gen.principal_db rng ~individuals:32 ~groups:4 ~density:0.2 in
  let hierarchy, universe = Gen.lattice ~levels:3 ~categories:4 in
  let principal = List.hd inds in
  let subject = Subject.make principal (Security_class.top hierarchy universe) in
  let acl =
    Gen.acl_with_subject_at rng ~subject:principal ~mode:Access_mode.Read
      ~filler_individuals:inds ~position:7 ~length:8
  in
  let meta = Meta.make ~owner:principal ~acl (Security_class.bottom hierarchy universe) in
  let monitor = Reference_monitor.create ~audit_capacity:4096 db in
  (* Warm both paths before timing either, so neither measurement pays
     the first-touch costs of the other. *)
  let measure_decide () =
    Timing.ns_per_op ~warmup:2000 (fun () ->
        ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
  in
  let measure_check () =
    Timing.ns_per_op ~warmup:2000 (fun () ->
        ignore
          (Reference_monitor.check monitor ~subject ~meta ~object_name:"/bench/object"
             ~mode:Access_mode.Read))
  in
  ignore (measure_decide ());
  ignore (measure_check ());
  let decide_only = measure_decide () in
  let with_audit = measure_check () in
  Format.printf "%-26s %-14s@." "variant" "cost/check";
  Format.printf "%-26s %a@." "decide (no audit record)" Timing.pp_ns decide_only;
  Format.printf "%-26s %a@." "check (audited)" Timing.pp_ns with_audit;
  Format.printf "audit record overhead: %a (%.0f%%)@." Timing.pp_ns (with_audit -. decide_only)
    ((with_audit -. decide_only) /. decide_only *. 100.0);
  Format.printf
    "expected shape: a bounded-ring audit record costs a small constant on top of@.";
  Format.printf "the decision itself — full accountability is affordable@."

(* {1 A2: layer costs and what each layer catches} *)

let a2 () =
  header "A2  Per-layer ablation: cost and flow violations caught";
  let hierarchy, universe = Gen.lattice ~levels:3 ~categories:2 in
  let db = Principal.Db.create () in
  let carol = Principal.individual "carol" in
  Principal.Db.add_individual db carol;
  let open_acl =
    Acl.of_entries
      [
        Acl.allow Acl.Everyone
          [ Access_mode.Read; Access_mode.Write; Access_mode.Write_append ];
      ]
  in
  let i_mid =
    Security_class.make
      (Level.of_name_exn hierarchy "L1")
      (Category.empty universe)
  in
  let policies =
    [
      "dac-only", Policy.dac_only;
      "dac+mac liberal", { Policy.default with Policy.overwrite = Mac.Liberal; integrity = false };
      "dac+mac strict", Policy.no_integrity;
      "dac+mac+integrity", Policy.default;
    ]
  in
  let rng0 = Prng.create ~seed:42 in
  let script =
    List.init 4_000 (fun _ ->
        ( Gen.security_class rng0 hierarchy universe,
          Gen.security_class rng0 hierarchy universe,
          (if Prng.bool rng0 then Access_mode.Read else Access_mode.Write) ))
  in
  Format.printf "%-20s %-12s %-10s %-12s %-14s@." "policy" "cost/check" "granted"
    "overwrites" "flow findings";
  List.iter
    (fun (label, policy) ->
      let monitor = Reference_monitor.create ~audit_capacity:8192 db in
      Reference_monitor.set_policy monitor policy;
      let granted = ref 0 in
      let overwrites = ref 0 in
      List.iter
        (fun (subject_class, object_class, mode) ->
          (* One principal per subject class: a single principal
             re-logging at many levels is itself a channel (the flow
             analyser would rightly flag it; Clearance's login policy
             is what forbids it in deployments). *)
          let principal =
            Principal.individual (Format.asprintf "u-%a" Security_class.pp subject_class)
          in
          Principal.Db.add_individual db principal;
          let subject = Subject.make ~integrity:i_mid principal subject_class in
          let meta = Meta.make ~owner:carol ~acl:open_acl ~integrity:i_mid object_class in
          match
            Reference_monitor.check monitor ~subject ~meta ~object_name:"/o" ~mode
          with
          | Decision.Granted ->
            incr granted;
            if
              mode = Access_mode.Write
              && not (Security_class.equal subject_class object_class)
            then incr overwrites
          | Decision.Denied _ -> ())
        script;
      let report = Flow.analyse_log (Reference_monitor.audit monitor) in
      (* Timing on a fixed representative check. *)
      let subject = Subject.make carol (Security_class.top hierarchy universe) in
      let meta = Meta.make ~owner:carol ~acl:open_acl (Security_class.bottom hierarchy universe) in
      let cost =
        Timing.ns_per_op (fun () ->
            ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
      in
      Format.printf "%-20s %a %-10d %-12d %-14d@." label Timing.pp_ns cost !granted
        !overwrites
        (List.length report.Flow.findings))
    policies;
  Format.printf
    "expected shape: DAC alone grants everything and is flow-unsound; any MAC@.";
  Format.printf
    "variant leaves zero flow findings (the star property is sound either way),@.";
  Format.printf
    "but only strict also stops unequal-class overwrites; the Biba layer adds@.";
  Format.printf "integrity at tens of nanoseconds@."

(* {1 A3: nested-group membership cost} *)

let a3 () =
  header "A3  ACL group entries vs nesting depth";
  Format.printf "%-8s %-14s@." "depth" "cost/check";
  List.iter
    (fun depth ->
      let db = Principal.Db.create () in
      let alice = Principal.individual "alice" in
      Principal.Db.add_individual db alice;
      (* g0 contains alice; g(i) contains g(i-1). *)
      let innermost = Principal.group "g0" in
      Principal.Db.add_member db innermost (Principal.Ind alice);
      let outer =
        List.fold_left
          (fun inner i ->
            let group = Principal.group (Printf.sprintf "g%d" i) in
            Principal.Db.add_member db group (Principal.Grp inner);
            group)
          innermost
          (List.init (depth - 1) (fun i -> i + 1))
      in
      let acl = Acl.of_entries [ Acl.allow (Acl.Group outer) [ Access_mode.Read ] ] in
      let cost =
        Timing.ns_per_op (fun () ->
            ignore (Acl.permits ~db ~subject:alice ~mode:Access_mode.Read acl))
      in
      Format.printf "%-8d %a@." depth Timing.pp_ns cost)
    [ 1; 2; 4; 8; 16 ];
  Format.printf
    "expected shape: linear in nesting depth — deep group hierarchies are the@.";
  Format.printf "main variable cost of fully featured ACLs@."

(* {1 A4: policy-file compilation throughput} *)

let a4 () =
  header "A4  Textual policy: parse + build cost vs policy size";
  Format.printf "%-10s %-12s %-14s %-14s@." "objects" "bytes" "parse" "build";
  List.iter
    (fun objects ->
      let buffer = Buffer.create 4096 in
      Buffer.add_string buffer "levels local > organization > others\n";
      Buffer.add_string buffer "categories d1 d2 d3 d4\n";
      for i = 0 to 15 do
        Buffer.add_string buffer (Printf.sprintf "individual user%d\n" i)
      done;
      Buffer.add_string buffer "group staff = user0 user1 user2 user3\n";
      for i = 0 to 15 do
        Buffer.add_string buffer
          (Printf.sprintf "clearance user%d = organization { d%d }\n" i ((i mod 4) + 1))
      done;
      for i = 0 to objects - 1 do
        Buffer.add_string buffer
          (Printf.sprintf
             "object /fs/obj%d {\n  owner user%d\n  class organization { d%d }\n  allow user:user%d read write\n  allow group:staff read\n  deny user:user%d read\n  allow everyone list\n}\n"
             i (i mod 16) ((i mod 4) + 1) (i mod 16) ((i + 1) mod 16))
      done;
      let text = Buffer.contents buffer in
      let parse =
        Timing.ns_per_op ~batch:50 ~batches:5 (fun () -> ignore (Policy_text.parse text))
      in
      let spec =
        match Policy_text.parse text with
        | Ok spec -> spec
        | Error _ -> failwith "a4: parse failed"
      in
      let build =
        Timing.ns_per_op ~batch:50 ~batches:5 (fun () -> ignore (Policy_text.build spec))
      in
      Format.printf "%-10d %-12d %a %a@." objects (String.length text) Timing.pp_ns parse
        Timing.pp_ns build)
    [ 8; 32; 128; 512 ];
  Format.printf
    "expected shape: roughly linear in policy size; realistic whole-deployment@.";
  Format.printf
    "policies (tens of objects) compile in well under a millisecond — reviewable@.";
  Format.printf "text costs nothing at runtime@."

(* {1 A5: quota enforcement overhead} *)

let a5 () =
  header "A5  Denial-of-service quotas: per-call charging overhead";
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let user = Principal.individual "user" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db user;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let kernel =
    Exsec_extsys.Kernel.boot ~db ~admin ~hierarchy ~universe ()
  in
  let open Exsec_extsys in
  let admin_sub = Kernel.admin_subject kernel in
  (match
     Kernel.install_proc kernel ~subject:admin_sub (Path.of_string "/svc/ping")
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "ping" 0 (Service.const Value.unit))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let subject = Subject.make user (Security_class.bottom hierarchy universe) in
  let ping () =
    ignore (Kernel.call kernel ~subject ~caller:"bench" (Path.of_string "/svc/ping") [])
  in
  let measure () = Timing.ns_per_op ~warmup:2000 ping in
  ignore (measure ());
  let without = measure () in
  (* A large budget so charging always takes the increment path. *)
  Quota.set (Kernel.quota kernel) user (Quota.calls max_int);
  ignore (measure ());
  let with_quota = measure () in
  Format.printf "%-28s %-14s@." "variant" "cost/call";
  Format.printf "%-28s %a@." "no quota entry" Timing.pp_ns without;
  Format.printf "%-28s %a@." "budgeted principal" Timing.pp_ns with_quota;
  Format.printf "charging overhead: %a@." Timing.pp_ns (with_quota -. without);
  Format.printf
    "expected shape: one hashtable probe (plus an increment for budgeted@.";
  Format.printf "principals) per call — DoS accounting is effectively free@."

(* {1 A8: compiled ACL decision path; audit ring under parallel recording} *)

(* One ACL of [len] entries whose only match for alice sits last — the
   interpreted walk scans everything, the compiled form binary-searches
   its sorted entry table.  [depth] > 0 routes the grant through a
   [depth]-level nested group chain. *)
let a8_case ~len ~depth =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db alice;
  let fillers =
    List.init (len - 1) (fun i -> Principal.individual (Printf.sprintf "f%d" i))
  in
  List.iter (Principal.Db.add_individual db) fillers;
  let grant_who =
    if depth = 0 then Acl.Individual alice
    else (
      let innermost = Principal.group "g0" in
      Principal.Db.add_member db innermost (Principal.Ind alice);
      let outer =
        List.fold_left
          (fun inner i ->
            let group = Principal.group (Printf.sprintf "g%d" i) in
            Principal.Db.add_member db group (Principal.Grp inner);
            group)
          innermost
          (List.init (depth - 1) (fun i -> i + 1))
      in
      Acl.Group outer)
  in
  let acl =
    Acl.of_entries
      (List.map (fun f -> Acl.allow (Acl.Individual f) [ Access_mode.Read ]) fillers
      @ [ Acl.allow grant_who [ Access_mode.Read ] ])
  in
  db, alice, acl

(* Aggregate audited checks per second: [domains] domains, one subject
   each, all recording into one shared monitor's audit ring. *)
let a8_audit_throughput ~domains ~ops_per_domain =
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let db = Principal.Db.create () in
  let subjects =
    Array.init domains (fun i ->
        let principal = Principal.individual (Printf.sprintf "u%d" i) in
        Principal.Db.add_individual db principal;
        Subject.make principal bottom)
  in
  let owner = Principal.individual "owner" in
  Principal.Db.add_individual db owner;
  let acl = Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] in
  let meta = Meta.make ~owner ~acl bottom in
  let monitor = Reference_monitor.create ~audit_capacity:1024 db in
  let run i () =
    let subject = subjects.(i) in
    for _ = 1 to ops_per_domain do
      ignore
        (Reference_monitor.check monitor ~subject ~meta ~object_name:"/bench/o"
           ~mode:Access_mode.Read)
    done
  in
  run 0 ();
  let start = Timing.now_ns () in
  let handles = List.init domains (fun i -> Domain.spawn (run i)) in
  List.iter Domain.join handles;
  let elapsed_s = (Timing.now_ns () -. start) /. 1e9 in
  float_of_int (domains * ops_per_domain) /. elapsed_s

let a8 () =
  header "A8  Compiled ACL decision path; audit ring under parallel recording";
  (* Part 1: the discretionary decision itself.  interpreted = the
     Acl.check list walk; compiled = the Acl_compiled table probe;
     decide = the whole Reference_monitor.decide around it (DAC-only
     policy isolates the layer). *)
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  Format.printf "%-8s %-6s %-12s %-12s %-12s %-9s %-12s@." "acl-len" "depth"
    "interpreted" "compiled" "decide" "speedup" "compile";
  List.iter
    (fun len ->
      List.iter
        (fun depth ->
          let db, alice, acl = a8_case ~len ~depth in
          let interpreted =
            Timing.ns_per_op ~warmup:2000 (fun () ->
                ignore (Acl.check ~db ~subject:alice ~mode:Access_mode.Read acl))
          in
          let compiled_form = Acl_compiled.compile ~db acl in
          let snapshot = Principal.Db.snapshot db in
          let compiled =
            Timing.ns_per_op ~warmup:2000 (fun () ->
                ignore
                  (Acl_compiled.check compiled_form ~snapshot ~subject:alice
                     ~mode:Access_mode.Read))
          in
          let compile_cost =
            Timing.ns_per_op ~warmup:50 ~batch:200 ~batches:5 (fun () ->
                ignore (Acl_compiled.compile ~db acl))
          in
          let meta = Meta.make ~owner:alice ~acl bottom in
          let subject = Subject.make alice bottom in
          let monitor = Reference_monitor.create ~policy:Policy.dac_only db in
          let decide =
            Timing.ns_per_op ~warmup:2000 (fun () ->
                ignore
                  (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
          in
          Format.printf "%-8d %-6d %a %a %a %8.1fx %a@." len depth Timing.pp_ns
            interpreted Timing.pp_ns compiled Timing.pp_ns decide (interpreted /. compiled)
            Timing.pp_ns compile_cost)
        [ 0; 2 ])
    [ 4; 16; 64 ];
  Format.printf
    "expected shape: interpreted grows with ACL length and group depth; compiled@.";
  Format.printf
    "grows only with log(entries) and one row probe per group entry (binary@.";
  Format.printf
    "searches + bit tests, zero allocation) and the monitor decide tracks it;@.";
  Format.printf "compilation is a one-off cost amortized by the metadata memo@.";
  (* Part 2: audited check throughput as recording domains are added.
     Every record takes one shared sequence number and CASes its own
     ring slot; no lock.  Rounds visit every domain count in turn, so a
     noisy stretch of the shared host spreads over all of them. *)
  let rounds = 9 in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let samples =
    List.init rounds (fun _ ->
        List.map
          (fun domains -> a8_audit_throughput ~domains ~ops_per_domain:50_000)
          domain_counts)
  in
  Format.printf "@.runtime-recognized cores: %d@." (Domain.recommended_domain_count ());
  Format.printf "%-8s %s@." "domains" "audited checks (median of 9 rounds)";
  List.iteri
    (fun i domains ->
      let rate = median (List.map (fun round -> List.nth round i) samples) in
      Format.printf "%-8d %8.2f Mops/s@." domains (rate /. 1e6))
    domain_counts;
  Format.printf
    "expected shape: no record waits on a lock, so adding domains does not drag@.";
  Format.printf
    "throughput down as one audit mutex did; every record still shares the@.";
  Format.printf
    "sequence counter and the ring's cache lines, so it need not grow either@."

(* {1 A7: static analysis cost; certified vs per-call dispatch} *)

let a7_policy_text ~objects =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "levels local > organization > others\n";
  Buffer.add_string buffer "categories d1 d2 d3 d4\n";
  for i = 0 to 15 do
    Buffer.add_string buffer (Printf.sprintf "individual user%d\n" i)
  done;
  Buffer.add_string buffer "group staff = user0 user1 user2 user3\n";
  for i = 0 to 15 do
    Buffer.add_string buffer
      (Printf.sprintf "clearance user%d = organization { d%d }\n" i ((i mod 4) + 1))
  done;
  for i = 0 to objects - 1 do
    Buffer.add_string buffer
      (Printf.sprintf
         "object /fs/obj%d {\n  owner user%d\n  class organization { d%d }\n  allow user:user%d read write\n  allow group:staff read\n  deny user:user%d read\n  allow everyone list\n}\n"
         i (i mod 16) ((i mod 4) + 1) (i mod 16) ((i + 1) mod 16))
  done;
  Buffer.contents buffer

let a7 () =
  let open Exsec_extsys in
  let module Analyzer = Exsec_analysis.Analyzer in
  let module Certificate = Exsec_analysis.Certificate in
  header "A7  Static policy analysis; certified vs per-call dispatch";
  (* Analyzer cost over whole policies: every pass, including the
     session-quantified dead-grant proofs and the flow closure. *)
  Format.printf "%-10s %-12s %-14s %-10s@." "objects" "bytes" "analyze" "findings";
  List.iter
    (fun objects ->
      let text = a7_policy_text ~objects in
      let report = Analyzer.analyze_text text in
      let cost =
        Timing.ns_per_op ~batch:3 ~batches:3 (fun () ->
            ignore (Analyzer.analyze_text text))
      in
      Format.printf "%-10d %-12d %a %-10d@." objects (String.length text) Timing.pp_ns
        cost
        (List.length report.Analyzer.findings))
    [ 8; 32; 128 ];
  (* Dispatch: a certified import (served from its proved import
     handle) against the same import through its handle, and against
     the checked call once the certificate is revoked. *)
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let ping = Path.of_string "/svc/ping" in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) ping
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (Service.proc "ping" 0 (Service.const Value.unit))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let ext = Extension.make ~name:"caller" ~author:alice ~imports:[ ping ] () in
  let linked =
    match Linker.link kernel ~subject:alice_sub ext with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  (match Linker.Linked.certificate linked with
  | Some certificate when Certificate.fully_certified certificate -> ()
  | Some _ -> failwith "a7: certificate not fully certified"
  | None -> failwith "a7: no certificate issued");
  let measure f = Timing.ns_per_op ~warmup:2000 (fun () -> ignore (f ())) in
  let call () = Linker.Linked.call linked ~subject:alice_sub ping [] in
  let certified = measure call in
  let handle = measure (fun () -> Linker.Linked.call_import linked ping []) in
  (* Drop the certificate: the import handle loses its proof, and the
     same Linked.call takes the full checked path. *)
  Kernel.revoke_certificate kernel "caller";
  let checked = measure call in
  Format.printf "@.%-34s %-14s@." "dispatch variant" "cost/call";
  Format.printf "%-34s %a@." "certified (proved import handle)" Timing.pp_ns certified;
  Format.printf "%-34s %a@." "import handle (call_import)" Timing.pp_ns handle;
  Format.printf "%-34s %a@." "re-check per call (revoked)" Timing.pp_ns checked;
  Format.printf "certified vs re-check: %.1fx; certified %s re-check@."
    (checked /. certified)
    (if certified <= checked then "<=" else "> (UNEXPECTED)");
  Format.printf
    "expected shape: a certified call costs its import handle plus a validity@.";
  Format.printf
    "probe, a fraction of the checked call; revocation strips the proof and the@.";
  Format.printf "same call is checked again@."

(* {1 A10: capability-handle dispatch vs every path-based variant} *)

let a10 () =
  let open Exsec_extsys in
  let module Certificate = Exsec_analysis.Certificate in
  header "A10 Capability handles: handle vs certified vs checked";
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let ping = Path.of_string "/svc/ping" in
  let pong = Ok Value.unit in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) ping
       ~meta:(Kernel.default_meta kernel ~owner:admin ())
       (* the result is preallocated so the measured loop sees the
          dispatch machinery's allocation, not the payload's *)
       (Service.proc "ping" 0 (fun _ctx _args -> pong))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let ext = Extension.make ~name:"caller" ~author:alice ~imports:[ ping ] () in
  let linked =
    match Linker.link kernel ~subject:alice_sub ext with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  (match Linker.Linked.certificate linked with
  | Some certificate when Certificate.fully_certified certificate -> ()
  | Some _ | None -> failwith "a10: no fully certified certificate");
  let handle =
    match Linker.Linked.import_handle linked ping with
    | Some handle -> handle
    | None -> failwith "a10: no import handle"
  in
  let measure_path () =
    Timing.ns_per_op ~warmup:2000 (fun () ->
        ignore (Linker.Linked.call linked ~subject:alice_sub ping []))
  in
  let handle_cost =
    Timing.ns_per_op ~warmup:2000 (fun () -> ignore (Kernel.call_handle kernel handle []))
  in
  (* Allocation on the granted hot path: words moved through the minor
     heap across a large batch, divided out.  The claim is exact
     zero. *)
  let alloc_per_call =
    let batch = 100_000 in
    let before = Gc.minor_words () in
    for _ = 1 to batch do
      ignore (Kernel.call_handle kernel handle [])
    done;
    (Gc.minor_words () -. before) /. float_of_int batch
  in
  let certified = measure_path () in
  (* Drop the certificate: every call pays resolution and the full
     monitor. *)
  Kernel.revoke_certificate kernel "caller";
  let checked = measure_path () in
  let stats = Kernel.handle_stats kernel in
  Format.printf "%-34s %-14s@." "dispatch variant" "cost/call";
  Format.printf "%-34s %a@." "capability handle (hot)" Timing.pp_ns handle_cost;
  Format.printf "%-34s %a@." "certified (proved import handle)" Timing.pp_ns certified;
  Format.printf "%-34s %a@." "re-check per call" Timing.pp_ns checked;
  Format.printf "@.handle vs certified: %.1fx; vs re-check: %.1fx@."
    (certified /. handle_cost) (checked /. handle_cost);
  Format.printf "granted-path allocation: %.3f words/call %s@." alloc_per_call
    (if alloc_per_call = 0.0 then "(exactly zero)" else "(EXPECTED ZERO)");
  Format.printf "handle table: %d minted, %d live, capacity %d@." stats.Handle.hs_mints
    stats.Handle.hs_live stats.Handle.hs_capacity;
  Format.printf
    "expected shape: the handle skips resolution, hashing and the monitor — one@.";
  Format.printf
    "slot probe plus a sweep of the chain's kept values; a certified call is the@.";
  Format.printf
    "handle plus the proof's validity probe, and any drift falls back to the@.";
  Format.printf "checked walk@."

(* {1 A9: observability overhead on the compiled grant path} *)

let a9 () =
  header "A9  Metrics & tracing: instrumented vs noop, compiled grant path";
  let rng = Prng.create ~seed:91 in
  let db, inds, _ = Gen.principal_db rng ~individuals:32 ~groups:4 ~density:0.2 in
  let hierarchy, universe = Gen.lattice ~levels:3 ~categories:4 in
  let principal = List.hd inds in
  let subject = Subject.make principal (Security_class.top hierarchy universe) in
  let acl =
    Gen.acl_with_subject_at rng ~subject:principal ~mode:Access_mode.Read
      ~filler_individuals:inds ~position:7 ~length:8
  in
  let meta = Meta.make ~owner:principal ~acl (Security_class.bottom hierarchy universe) in
  let monitor = Reference_monitor.create db in
  let module Metrics = Exsec_obs.Metrics in
  let measure () =
    Timing.ns_per_op ~warmup:4096 (fun () ->
        ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
  in
  let measure_in enabled =
    Metrics.set_enabled enabled;
    let ns = measure () in
    Metrics.set_enabled false;
    ns
  in
  (* Warm both modes (and the compiled-ACL and subject-id memos)
     before timing either, so neither measurement pays the other's
     first-touch costs. *)
  ignore (measure_in true);
  ignore (measure_in false);
  (* One measurement is under a millisecond, so host drift between the
     two sides swamps a ~10 ns gap.  Alternate the sides over many
     rounds, each side first in half of them, and take medians; the
     verdict reads the median of the per-round overheads. *)
  let rounds =
    List.init 11 (fun i ->
        let noop, instrumented =
          if i land 1 = 0 then
            let noop = measure_in false in
            noop, measure_in true
          else
            let instrumented = measure_in true in
            measure_in false, instrumented
        in
        noop, instrumented, (instrumented -. noop) /. noop *. 100.0)
  in
  Metrics.reset ();
  let noop = median (List.map (fun (n, _, _) -> n) rounds) in
  let instrumented = median (List.map (fun (_, i, _) -> i) rounds) in
  let overhead_pct = median (List.map (fun (_, _, o) -> o) rounds) in
  Format.printf "%-28s %-14s@." "collection" "cost/decide (median of 11 rounds)";
  Format.printf "%-28s %a@." "noop (default)" Timing.pp_ns noop;
  Format.printf "%-28s %a@." "instrumented (counters+1/32 timer)" Timing.pp_ns instrumented;
  Format.printf "per-round overheads (%%): %s@."
    (String.concat " " (List.map (fun (_, _, o) -> Printf.sprintf "%.1f" o) rounds));
  Format.printf "instrumentation overhead, median round: %.1f%% %s@." overhead_pct
    (if overhead_pct <= 15.0 then "<= 15% budget" else "OVER the 15% budget");
  Format.printf
    "expected shape: noop mode is one observability branch around the bare decision;@.";
  Format.printf
    "enabling collection adds one fetch-and-add (the decision counter, which also@.";
  Format.printf
    "picks the 1-in-32 timed decides) and that sample's clock pair; budget: 15%% of@.";
  Format.printf "the noop compiled grant path@."

(* {1 A11: analyze-then-link vs lazy certification} *)

let a11 () =
  let open Exsec_extsys in
  let module Metrics = Exsec_obs.Metrics in
  header "A11 Chain analysis: analyze-then-link vs lazy certification";
  let store = Path.of_string "/svc/get" in
  let fetch = Path.of_string "/ext/b/fetch" in
  let payload = Ok (Value.int 7) in
  (* One transitive chain: a imports /ext/b/fetch, whose body calls
     /svc/get.  The analyzed twin boots with the clearance registry, so
     linking runs the interprocedural chain analysis and pre-mints a
     handle for the proved transitive target; the lazy twin has no
     registry and decides every call at invocation time. *)
  let build ~analyzed =
    let db = Principal.Db.create () in
    let admin = Principal.individual "admin" in
    let alice = Principal.individual "alice" in
    Principal.Db.add_individual db admin;
    Principal.Db.add_individual db alice;
    let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
    let universe = Category.universe [] in
    let bottom = Security_class.bottom hierarchy universe in
    let registry = Clearance.create () in
    Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
    Clearance.register registry alice bottom;
    let kernel =
      Kernel.boot
        ?registry:(if analyzed then Some registry else None)
        ~db ~admin ~hierarchy ~universe ()
    in
    (match
       Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store
         ~meta:(Kernel.default_meta kernel ~owner:admin ())
         (* preallocated result: the loops measure dispatch, not payload *)
         (Service.proc "get" 0 (fun _ctx _args -> payload))
     with
    | Ok () -> ()
    | Error e -> failwith (Service.error_to_string e));
    let alice_sub = Subject.make alice bottom in
    let link ext =
      match Linker.link kernel ~subject:alice_sub ext with
      | Ok linked -> linked
      | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
    in
    let _ =
      link
        (Extension.make ~name:"b" ~author:alice ~imports:[ store ]
           ~provides:
             [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
           ())
    in
    let linked = link (Extension.make ~name:"a" ~author:alice ~imports:[ fetch ] ()) in
    kernel, linked, alice_sub
  in
  let kernel_a, linked_a, sub_a = build ~analyzed:true in
  let kernel_l, linked_l, sub_l = build ~analyzed:false in
  (match Linker.Linked.chain_imports linked_a with
  | [ p ] when Path.equal p store -> ()
  | _ -> failwith "a11: chain target not pre-minted");
  (* The transitive call a -> (b) -> /svc/get, by each strategy. *)
  let chain_analyzed () = ignore (Linker.Linked.call_chain linked_a store []) in
  let chain_lazy () = ignore (Kernel.call kernel_l ~subject:sub_l ~caller:"a" store []) in
  (* The whole relay through b's fetch, certified vs per-call. *)
  let relay_analyzed () = ignore (Linker.Linked.call linked_a ~subject:sub_a fetch []) in
  let relay_lazy () = ignore (Linker.Linked.call linked_l ~subject:sub_l fetch []) in
  let measure f = Timing.ns_per_op ~warmup:2000 f in
  let t_chain_a = measure chain_analyzed in
  let t_chain_l = measure chain_lazy in
  let t_relay_a = measure relay_analyzed in
  let t_relay_l = measure relay_lazy in
  (* Fraction of calls served from a handle (pre-minted chain handle or
     proved import handle), from the metrics counters, over a mixed
     stream; the relay's nested hop is a checked Kernel.call. *)
  let fraction kernel mixed =
    ignore kernel;
    Metrics.set_enabled true;
    Metrics.reset ();
    for i = 1 to 10_000 do
      mixed i
    done;
    let v name = Metrics.value (Metrics.counter name) in
    let fast = v "handle.hits" in
    let total = v "handle.calls" + v "kernel.calls" in
    Metrics.set_enabled false;
    Metrics.reset ();
    if total = 0 then 0.0 else float_of_int fast /. float_of_int total
  in
  let frac_a =
    fraction kernel_a (fun i -> if i mod 2 = 0 then chain_analyzed () else relay_analyzed ())
  in
  let frac_l =
    fraction kernel_l (fun i -> if i mod 2 = 0 then chain_lazy () else relay_lazy ())
  in
  Format.printf "%-40s %-14s@." "transitive call a -> b -> /svc/get" "cost/call";
  Format.printf "%-40s %a@." "analyze-then-link (pre-minted handle)" Timing.pp_ns t_chain_a;
  Format.printf "%-40s %a@." "lazy certification (full monitor)" Timing.pp_ns t_chain_l;
  Format.printf "%-40s %-14s@." "relay via /ext/b/fetch" "cost/call";
  Format.printf "%-40s %a@." "analyze-then-link (certified)" Timing.pp_ns t_relay_a;
  Format.printf "%-40s %a@." "lazy certification (per-call checks)" Timing.pp_ns t_relay_l;
  Format.printf "@.chain speedup %.1fx; relay speedup %.1fx@." (t_chain_l /. t_chain_a)
    (t_relay_l /. t_relay_a);
  Format.printf "fast-path fraction: analyze-then-link %.3f, lazy %.3f@." frac_a frac_l;
  Format.printf
    "expected shape: the fixpoint proves the transitive /svc/get call redundant for@.";
  Format.printf
    "every registered session, so analyze-then-link serves it on the handle path;@.";
  Format.printf
    "the relay's outer hop is a proved import handle and its nested hop a checked@.";
  Format.printf
    "call (fraction ~0.67), while lazy certification pays the monitor every call@.";
  (* Link, revoke and unload cost against the loaded set.  [loaded]
     extensions are linked first (one in 8 a relay providing fetch over
     /svc/get, the rest importers of /svc/get), then 32 probes are timed
     one link each: importers of /svc/get alternating with users of the
     first relay, whose nested call the chain analysis proves.  Then
     each probe's certificate is revoked, and each probe unloaded, one
     timed operation each.  Each figure is the median over the 32. *)
  let sweep_ms loaded =
    let kernel, _, sub = build ~analyzed:true in
    let alice = Subject.principal sub in
    let link ext =
      match Linker.link kernel ~subject:sub ext with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
    in
    for i = 0 to loaded - 1 do
      let name = Printf.sprintf "l%04d" i in
      link
        (if i mod 8 = 0 then
           Extension.make ~name ~author:alice ~imports:[ store ]
             ~provides:
               [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
             ()
         else Extension.make ~name ~author:alice ~imports:[ store ] ())
    done;
    let relay = Path.of_string "/ext/l0000/fetch" in
    let probes = List.init 32 Fun.id in
    let name i = Printf.sprintf "probe%02d" i in
    let timed f =
      List.map
        (fun i ->
          let t0 = Timing.now_ns () in
          f i;
          (Timing.now_ns () -. t0) /. 1e6)
        probes
      |> median
    in
    let link_ms =
      timed (fun i ->
          let imports = [ (if i mod 2 = 0 then store else relay) ] in
          link (Extension.make ~name:(name i) ~author:alice ~imports ()))
    in
    let revoke_ms = timed (fun i -> Kernel.revoke_certificate kernel (name i)) in
    let unload_ms =
      timed (fun i ->
          match Linker.unload kernel ~subject:sub (name i) with
          | Ok () -> ()
          | Error e -> failwith (Service.error_to_string e))
    in
    link_ms, revoke_ms, unload_ms
  in
  ignore (sweep_ms 128) (* warm-up: the first world pays first-touch costs *);
  let sweep = List.map (fun loaded -> loaded, sweep_ms loaded) [ 128; 512; 1024 ] in
  Format.printf "@.%-28s %12s %12s %12s@." "extensions already linked" "link" "revoke"
    "unload";
  List.iter
    (fun (loaded, (link, revoke, unload)) ->
      Format.printf "%-28d %9.1f us %9.1f us %9.1f us@." loaded (1e3 *. link) (1e3 *. revoke)
        (1e3 *. unload))
    sweep;
  let growth pick = pick (List.assoc 1024 sweep) /. pick (List.assoc 128 sweep) in
  Format.printf "1,024 vs 128 loaded: link %.2fx, revoke %.2fx, unload %.2fx@."
    (growth (fun (l, _, _) -> l))
    (growth (fun (_, r, _) -> r))
    (growth (fun (_, _, u) -> u));
  Format.printf
    "expected shape: flat — a link builds the call graph of what the new extension@.";
  Format.printf
    "reaches and analyses it once, and a revocation or an unload touches only the@.";
  Format.printf "extension's own handles, whatever else is loaded@."

let a12 () =
  let open Exsec_extsys in
  let module Certificate = Exsec_analysis.Certificate in
  let module Metrics = Exsec_obs.Metrics in
  header "A12 Row-rule invalidation: certified-call survival under unrelated churn";
  let store = Path.of_string "/svc/get" in
  let payload = Ok (Value.int 7) in
  (* The certificate's proof consults one group-gated ACL (staff).
     Churn lands entirely on visitors — a group no consulted ACL names
     — in batches of 100 edits, 10^4 edits total.  After each batch we
     ask two validity predicates whether the certificate still stands
     for alice: the row rule (Certificate.admits: the generation, or
     else alice's own snapshot row, the rule handles keep) and
     generation-exact (the pre-lifecycle rule: any movement of the
     global principal-db generation revokes).  Beside them, a handle
     alice opened on the same path before the churn is called once per
     batch: it survives the batch when the call neither re-mints it nor
     writes an audit record.  Each batch registers its 100 visitors,
     and no id moves, so alice's row does not either.  A row short of
     100/100, a generation-exact survival or an edit of alice's own
     membership that fails to bite fails the experiment. *)
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let staff = Principal.group "staff" in
  let visitors = Principal.group "visitors" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_member db staff (Principal.Ind alice);
  Principal.Db.add_group db visitors;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow (Acl.Group staff) [ Access_mode.List; Access_mode.Execute ];
           ])
      bottom
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store ~meta
       (Service.proc "get" 0 (fun _ctx _args -> payload))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let linked =
    match
      Linker.link kernel ~subject:alice_sub
        (Extension.make ~name:"caller" ~author:alice ~imports:[ store ] ())
    with
    | Ok linked -> linked
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  let certificate =
    match Linker.Linked.certificate linked with
    | Some c when Certificate.fully_certified c -> c
    | Some _ | None -> failwith "a12: no fully certified certificate"
  in
  let handle =
    match Kernel.open_handle kernel ~subject:alice_sub ~caller:"a12" store with
    | Ok handle -> handle
    | Error e -> failwith (Service.error_to_string e)
  in
  let audit = Reference_monitor.audit (Kernel.monitor kernel) in
  let reminted = Metrics.counter "handle.reminted" in
  let row_rule_ok () =
    Kernel.certificate_admits kernel ~caller:"caller" ~subject:alice_sub store
  in
  let genexact_ok () =
    row_rule_ok () && Principal.Db.generation db = certificate.Certificate.db_generation
  in
  let batches = 100 and batch_size = 100 in
  let row_rule_survived = ref 0 and genexact_survived = ref 0 and handle_survived = ref 0 in
  let metrics_were = Metrics.enabled () in
  Metrics.set_enabled true;
  for batch = 1 to batches do
    Kernel.batch_principals kernel (fun () ->
        for i = 1 to batch_size do
          Principal.Db.add_member db visitors
            (Principal.Ind (Principal.individual (Printf.sprintf "g%d-%d" batch i)))
        done);
    if row_rule_ok () then incr row_rule_survived;
    if genexact_ok () then incr genexact_survived;
    let reminted0 = Metrics.value reminted and audit0 = Audit.total audit in
    (match Kernel.call_handle kernel handle [] with
    | Ok _ -> ()
    | Error e -> failwith ("a12: the handle refused: " ^ Service.error_to_string e));
    if Metrics.value reminted = reminted0 && Audit.total audit = audit0 then
      incr handle_survived
  done;
  Metrics.set_enabled metrics_were;
  let edits = batches * batch_size in
  (* Cost of the surviving fast path (the proved import handle) after
     the churn, against the full checked call the generation-exact
     scheme would have fallen back to for the rest of the certificate's
     life. *)
  let certified () = ignore (Linker.Linked.call linked ~subject:alice_sub store []) in
  let checked () = ignore (Kernel.call kernel ~subject:alice_sub ~caller:"nobody" store []) in
  let t_certified = Timing.ns_per_op ~warmup:2000 certified in
  let t_checked = Timing.ns_per_op ~warmup:2000 checked in
  Format.printf "%d unrelated principal edits in %d batches of %d@." edits batches
    batch_size;
  Format.printf "%-44s %3d / %d batches@." "row rule: certificate survived"
    !row_rule_survived batches;
  Format.printf "%-44s %3d / %d batches@." "generation-exact: certificate survived"
    !genexact_survived batches;
  Format.printf "%-44s %3d / %d batches@." "handle: neither re-minted nor audited"
    !handle_survived batches;
  Format.printf "%-44s %a@." "certified call after churn" Timing.pp_ns t_certified;
  Format.printf "%-44s %a@." "checked call (post-revocation fallback)" Timing.pp_ns
    t_checked;
  Format.printf "@.expected shape: no edit moves alice's row, so@.";
  Format.printf
    "the row rule survives all %d batches while generation-exact dies on the@." batches;
  Format.printf
    "first one; the survivor keeps the certified fast path for the whole run,@.";
  Format.printf "and the handle serves every batch from its grant@.";
  (* And the revocation that matters still bites: one edit of alice's
     own membership ends the certificate for her and denies the
     handle. *)
  Principal.Db.remove_member db staff (Principal.Ind alice);
  let row_rule_after = row_rule_ok () in
  let handle_denied =
    match Kernel.call_handle kernel handle [] with
    | Error (Service.Denied _) -> true
    | Ok _ | Error _ -> false
  in
  Format.printf
    "after alice's own edit (alice leaves staff): row rule admits = %b, handle denied = %b@."
    row_rule_after handle_denied;
  let failures =
    List.filter_map
      (fun (failed, what) -> if failed then Some what else None)
      [
        !row_rule_survived < batches, "row-rule certificate short of every batch";
        !handle_survived < batches, "handle short of every batch";
        !genexact_survived > 0, "generation-exact certificate survived a batch";
        row_rule_after, "alice's own edit left the certificate admitting her";
        not handle_denied, "covered edit left the handle serving";
      ]
  in
  if failures <> [] then raise (Scaling.Failed (String.concat "; " failures))
