(* exsecd: a command-line driver for the extensible-system security
   model — run the paper's scenarios, inspect policies, and query
   what-if access decisions from the shell.

     dune exec bin/exsecd.exe -- scenario
     dune exec bin/exsecd.exe -- models
     dune exec bin/exsecd.exe -- check --subject-level organization \
       --subject-cats department-1 --object-level local --mode read
     dune exec bin/exsecd.exe -- attacks --faulty verifier *)

open Cmdliner
open Exsec_core
open Exsec_baselines
open Exsec_workload

(* {1 scenario} *)

let scenario_cmd =
  let run verbose =
    match Scenario.build_checked () with
    | Error label ->
      Format.printf "scenario setup refused: %s@." label;
      1
    | Ok scenario ->
    Format.printf "subjects:@.";
    List.iter
      (fun (name, subject) -> Format.printf "  %-8s %a@." name Subject.pp subject)
      (Scenario.subjects scenario);
    Format.printf "@.%-9s" "";
    List.iter (Format.printf " %-13s") Scenario.files;
    Format.printf "@.";
    List.iter
      (fun (name, _) ->
        Format.printf "%-9s" name;
        List.iter
          (fun file ->
            Format.printf " %-13s"
              (if Scenario.measured_read scenario ~subject_name:name ~file then "read" else "-"))
          Scenario.files;
        Format.printf "@.")
      (Scenario.subjects scenario);
    if verbose then begin
      let audit =
        Reference_monitor.audit (Exsec_extsys.Kernel.monitor scenario.Scenario.kernel)
      in
      Format.printf "@.audit trail (%d events):@." (Audit.total audit);
      List.iter (fun e -> Format.printf "  %a@." Audit.pp_event e) (Audit.events audit)
    end;
    0
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also dump the audit trail.")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run the paper's applet example and print the access matrix")
    Term.(const run $ verbose)

(* {1 models} *)

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

let models_cmd =
  let run requirement =
    let selected =
      match requirement with
      | None -> Suite.all
      | Some id -> (
        match Suite.find (String.uppercase_ascii id) with
        | Some r -> [ r ]
        | None ->
          Format.printf "unknown requirement %s (known: R1..R12)@." id;
          exit 1)
    in
    List.iter
      (fun (r : World.requirement) ->
        Format.printf "%s  %s (%s)@." r.World.r_id r.World.r_title r.World.r_paper;
        List.iter
          (fun (module M : Model.MODEL) ->
            let outcome, failures = Model.evaluate_verbose (module M) r in
            Format.printf "    %-14s %a@." M.name Model.pp_outcome outcome;
            List.iter
              (fun { Model.case; got } ->
                Format.printf "        %s %a %s: decided %b, expected %b@."
                  case.World.c_subject.World.s_name World.pp_operation case.World.c_op
                  case.World.c_object.World.o_path got case.World.c_expect)
              failures)
          models;
        Format.printf "@.")
      selected;
    0
  in
  let requirement =
    Arg.(
      value
      & opt (some string) None
      & info [ "r"; "requirement" ] ~docv:"ID" ~doc:"Limit to one requirement (R1..R12).")
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:"Score every protection model against the policy-requirement suite")
    Term.(const run $ requirement)

(* {1 check: what-if access decisions} *)

let check_cmd =
  let run subject_level subject_cats object_level object_cats mode_name strict =
    let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
    let universe =
      Category.universe [ "myself"; "department-1"; "department-2"; "outside" ]
    in
    let parse_level name =
      match Level.of_name hierarchy name with
      | Some level -> level
      | None ->
        Format.printf "unknown level %s (local|organization|others)@." name;
        exit 1
    in
    let parse_cats names =
      try Category.of_names universe names with
      | Invalid_argument message ->
        Format.printf "%s@." message;
        exit 1
    in
    let mode =
      match Access_mode.of_string mode_name with
      | Some mode -> mode
      | None ->
        Format.printf "unknown mode %s@." mode_name;
        exit 1
    in
    let subject_class =
      Security_class.make (parse_level subject_level) (parse_cats subject_cats)
    in
    let object_class =
      Security_class.make (parse_level object_level) (parse_cats object_cats)
    in
    let rule = if strict then Mac.Strict else Mac.Liberal in
    Format.printf "subject class: %a@." Security_class.pp subject_class;
    Format.printf "object  class: %a@." Security_class.pp object_class;
    (match Mac.check ~rule ~subject:subject_class ~object_:object_class mode with
    | Ok () -> Format.printf "%a: GRANTED by the mandatory rules@." Access_mode.pp mode
    | Error denial ->
      Format.printf "%a: DENIED (%a)@." Access_mode.pp mode Mac.pp_denial denial);
    0
  in
  let level which default =
    Arg.(
      value & opt string default
      & info [ which ^ "-level" ] ~docv:"LEVEL" ~doc:(which ^ " trust level."))
  in
  let cats which =
    Arg.(
      value
      & opt_all string []
      & info [ which ^ "-cats" ] ~docv:"CAT" ~doc:(which ^ " categories (repeatable)."))
  in
  let mode =
    Arg.(value & opt string "read" & info [ "mode" ] ~docv:"MODE" ~doc:"Access mode.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Strict overwrite rule (the default policy).")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Evaluate a mandatory access decision between two classes")
    Term.(
      const run $ level "subject" "organization" $ cats "subject" $ level "object" "local"
      $ cats "object" $ mode $ strict)

(* {1 shell: the interactive operator shell} *)

let shell_cmd =
  let run policy_file script_file =
    let policy =
      match policy_file with
      | None -> None
      | Some file -> (
        let text =
          try
            let ic = open_in file in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
          with
          | Sys_error message ->
            Format.printf "%s@." message;
            exit 1
        in
        match Exsec_core.Policy_text.parse text with
        | Ok spec -> Some spec
        | Error e ->
          Format.printf "%a@." Exsec_core.Policy_text.pp_error e;
          exit 1)
    in
    match Exsec_shell.Shell.create ?policy () with
    | Error message ->
      Format.printf "boot failed: %s@." message;
      1
    | Ok shell -> (
      match script_file with
      | Some file ->
        (* Scripted mode: one command per line, echoed with its
           output — reproducible demos and documentation snippets. *)
        let ic = open_in file in
        (try
           while true do
             let line = input_line ic in
             if String.length line > 0 && line.[0] <> '#' then begin
               print_endline (Exsec_shell.Shell.prompt shell ^ line);
               let output = Exsec_shell.Shell.exec shell line in
               if String.length output > 0 then print_endline output
             end
           done
         with
        | End_of_file -> close_in ic);
        0
      | None ->
        print_endline "exsec shell — 'help' lists commands, ctrl-d exits";
        let rec loop () =
          print_string (Exsec_shell.Shell.prompt shell);
          match read_line () with
          | exception End_of_file -> 0
          | "exit" | "quit" -> 0
          | line ->
            let output = Exsec_shell.Shell.exec shell line in
            if String.length output > 0 then print_endline output;
            loop ()
        in
        loop ())
  in
  let policy_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "policy" ] ~docv:"FILE" ~doc:"Boot from a textual policy file.")
  in
  let script_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Run commands from a file instead of stdin.")
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"An interactive operator shell over a live extensible system")
    Term.(const run $ policy_file $ script_file)

(* {1 policy: load and query a policy file} *)

let policy_cmd =
  let run file canonical as_name at_level at_cats mode_name on_path =
    let text =
      try
        let ic = open_in file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with
      | Sys_error message ->
        Format.printf "%s@." message;
        exit 1
    in
    let spec =
      match Policy_text.parse text with
      | Ok spec -> spec
      | Error e ->
        Format.printf "%a@." Policy_text.pp_error e;
        exit 1
    in
    let built =
      match Policy_text.build spec with
      | Ok built -> built
      | Error e ->
        Format.printf "%a@." Policy_text.pp_error e;
        exit 1
    in
    Format.printf "loaded %s: %d level(s), %d categorie(s), %d principal(s), %d object(s)@."
      file
      (List.length spec.Policy_text.levels)
      (List.length spec.Policy_text.categories)
      (List.length spec.Policy_text.individuals)
      (List.length spec.Policy_text.objects);
    if canonical then print_string (Policy_text.to_string spec);
    (match as_name, on_path with
    | Some name, Some path ->
      let subject =
        let session_class =
          match at_level with
          | None -> None
          | Some level_name ->
            let level =
              match Level.of_name built.Policy_text.hierarchy level_name with
              | Some level -> level
              | None ->
                Format.printf "unknown level %s@." level_name;
                exit 1
            in
            let cats =
              try Category.of_names built.Policy_text.universe at_cats with
              | Invalid_argument message ->
                Format.printf "%s@." message;
                exit 1
            in
            Some (Security_class.make level cats)
        in
        match
          Clearance.login built.Policy_text.registry ?at:session_class
            (Principal.individual name)
        with
        | Ok subject -> subject
        | Error e ->
          Format.printf "login %s: %a@." name Clearance.pp_error e;
          exit 1
      in
      let mode =
        match Access_mode.of_string mode_name with
        | Some mode -> mode
        | None ->
          Format.printf "unknown mode %s@." mode_name;
          exit 1
      in
      (match List.assoc_opt path built.Policy_text.metas with
      | None ->
        Format.printf "no object %s in the policy@." path;
        exit 1
      | Some meta ->
        let monitor = Reference_monitor.create built.Policy_text.db in
        let decision =
          Reference_monitor.check monitor ~subject ~meta ~object_name:path ~mode
        in
        Format.printf "%a %a %s: %a@." Subject.pp subject Access_mode.pp mode path
          Decision.pp decision)
    | Some _, None | None, Some _ ->
      Format.printf "a query needs both --as and --on@.";
      exit 1
    | None, None -> ());
    0
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Policy file.")
  in
  let canonical =
    Arg.(value & flag & info [ "canonical" ] ~doc:"Print the canonical form back out.")
  in
  let as_name =
    Arg.(value & opt (some string) None & info [ "as" ] ~docv:"NAME" ~doc:"Principal to query as.")
  in
  let at_level =
    Arg.(value & opt (some string) None & info [ "at-level" ] ~docv:"LEVEL" ~doc:"Session level (default: full clearance).")
  in
  let at_cats =
    Arg.(value & opt_all string [] & info [ "at-cat" ] ~docv:"CAT" ~doc:"Session category (repeatable).")
  in
  let mode =
    Arg.(value & opt string "read" & info [ "mode" ] ~docv:"MODE" ~doc:"Access mode to query.")
  in
  let on_path =
    Arg.(value & opt (some string) None & info [ "on" ] ~docv:"OBJECT" ~doc:"Object path to query.")
  in
  Cmd.v
    (Cmd.info "policy" ~doc:"Load a textual policy file; optionally query a decision under it")
    Term.(const run $ file $ canonical $ as_name $ at_level $ at_cats $ mode $ on_path)

(* {1 analyze: the static policy analyzer} *)

let analyze_cmd =
  let module Finding = Exsec_analysis.Finding in
  let run file json severity_name dac_only mac_only liberal chains cert_prefixes
      cert_validity =
    let severity =
      match Finding.severity_of_string severity_name with
      | Some severity -> severity
      | None ->
        Format.printf "unknown severity %s (info|warning|error)@." severity_name;
        exit 1
    in
    let text =
      try
        let ic = open_in file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with
      | Sys_error message ->
        Format.printf "%s@." message;
        exit 1
    in
    let policy =
      let base =
        if dac_only then Policy.dac_only
        else if mac_only then Policy.mac_only
        else Policy.default
      in
      if liberal then { base with Policy.overwrite = Mac.Liberal } else base
    in
    (* An ad-hoc certificate profile from the command line: what a
       certificate issued under these prefixes/validity would cover,
       reported next to the chain verdicts. *)
    let profile =
      if cert_prefixes = [] && cert_validity = None then None
      else
        Some
          (Exsec_analysis.Certificate.make_profile ~name:"cli"
             ~prefixes:(List.map Path.of_string cert_prefixes)
             ?validity:cert_validity ())
    in
    let report = Exsec_analysis.Analyzer.analyze_text ~policy text in
    let chain_report =
      if not chains then None
      else
        match report.Exsec_analysis.Analyzer.built with
        | Some built -> Some (Exsec_analysis.Analyzer.analyze_chains ~policy ~built ())
        | None -> None
    in
    let findings =
      Finding.normalize
        (report.Exsec_analysis.Analyzer.findings
        @
        match chain_report with
        | Some chain -> chain.Exsec_analysis.Chain_certify.findings
        | None -> [])
    in
    let kept = Finding.sort (Finding.at_least severity findings) in
    if json then begin
      let extra =
        match chain_report with
        | None -> []
        | Some chain ->
          ("chains", Exsec_analysis.Chain_certify.sites_to_json chain)
          ::
          (match profile with
          | None -> []
          | Some profile ->
            [
              ( "lifecycle",
                Exsec_analysis.Chain_certify.lifecycle_to_json ~profile chain );
            ])
      in
      print_endline (Finding.to_json ~extra kept)
    end
    else begin
      List.iter (fun f -> Format.printf "%a@." Finding.pp f) kept;
      (match chain_report with
      | None -> ()
      | Some chain ->
        Format.printf "call sites (chain analysis):@.";
        List.iter
          (fun site ->
            Format.printf "  %a@." Exsec_analysis.Chain_certify.pp_site site)
          chain.Exsec_analysis.Chain_certify.sites;
        match profile with
        | None -> ()
        | Some profile ->
          let module Cc = Exsec_analysis.Chain_certify in
          let module Certificate = Exsec_analysis.Certificate in
          let redundant =
            List.filter
              (fun site -> site.Cc.sr_classification = Cc.Redundant)
              chain.Cc.sites
          in
          let certifiable =
            List.filter
              (fun site ->
                Certificate.profile_admits_path profile
                  (Path.of_string site.Cc.sr_target))
              redundant
          in
          Format.printf
            "certificate lifecycle: %d of %d provably-redundant site(s) certifiable \
             under profile %s@."
            (List.length certifiable) (List.length redundant)
            profile.Certificate.profile_name);
      Format.printf "%s: %d error(s), %d warning(s), %d info@." file
        (Finding.count Finding.Error kept)
        (Finding.count Finding.Warning kept)
        (Finding.count Finding.Info kept)
    end;
    if Finding.count Finding.Error kept > 0 then 1 else 0
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Policy file.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let severity =
    Arg.(
      value & opt string "info"
      & info [ "severity" ] ~docv:"LEVEL"
          ~doc:"Report findings at or above this severity: info, warning or error.")
  in
  let dac_only =
    Arg.(value & flag & info [ "dac-only" ] ~doc:"Analyze under a DAC-only policy.")
  in
  let mac_only =
    Arg.(value & flag & info [ "mac-only" ] ~doc:"Analyze under a MAC-only policy.")
  in
  let liberal =
    Arg.(value & flag & info [ "liberal" ] ~doc:"Analyze under the liberal overwrite rule.")
  in
  let chains =
    Arg.(
      value & flag
      & info [ "chains" ]
          ~doc:
            "Run the interprocedural chain analysis: classify every reachable call \
             site as provably-redundant, provably-denied (an error) or \
             runtime-dependent, and flag over-privileged grants on call-graph objects.")
  in
  let cert_prefixes =
    Arg.(
      value & opt_all string []
      & info [ "cert-prefix" ] ~docv:"PATH"
          ~doc:
            "With $(b,--chains): restrict an ad-hoc certificate profile to this path \
             prefix (repeatable) and report which provably-redundant sites it would \
             cover (the $(b,lifecycle) JSON member).")
  in
  let cert_validity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cert-validity" ] ~docv:"EPOCHS"
          ~doc:
            "With $(b,--chains): give the ad-hoc certificate profile a validity \
             horizon of this many certificate epochs.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze a policy file: parse and name defects, ACL lint (shadowed, \
          contradictory, redundant, dead entries), information-flow channels, and (with \
          $(b,--chains)) interprocedural call-chain verdicts. Exits non-zero when any \
          error-severity finding is reported.")
    Term.(
      const run $ file $ json $ severity $ dac_only $ mac_only $ liberal $ chains
      $ cert_prefixes $ cert_validity)

(* {1 certs: the certificate lifecycle over a demo world}

   A small two-extension world with a group-gated service: `certs`
   lists every certificate's lifecycle state and covers.  The
   lifecycle itself (row rule, delegation, expiry, CRL revocation, the
   counters) is exercised by the test suite's cert-lifecycle cases. *)

let certs_cmd =
  let module Kernel = Exsec_extsys.Kernel in
  let module Linker = Exsec_extsys.Linker in
  let module Extension = Exsec_extsys.Extension in
  let module Service = Exsec_extsys.Service in
  let module Value = Exsec_extsys.Value in
  let module Certificate = Exsec_analysis.Certificate in
  let store = Path.of_string "/svc/get" in
  let fetch = Path.of_string "/ext/relay/fetch" in
  let build () =
    let db = Principal.Db.create () in
    let admin = Principal.individual "admin" in
    let alice = Principal.individual "alice" in
    let bob = Principal.individual "bob" in
    let staff = Principal.group "staff" in
    Principal.Db.add_individual db admin;
    Principal.Db.add_member db staff (Principal.Ind alice);
    Principal.Db.add_member db staff (Principal.Ind bob);
    let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
    let universe = Category.universe [] in
    let bottom = Security_class.bottom hierarchy universe in
    let registry = Clearance.create () in
    Clearance.register registry ~trusted:true admin
      (Security_class.top hierarchy universe);
    Clearance.register registry alice bottom;
    Clearance.register registry bob bottom;
    let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
    (* Staff-gated through a group entry: each certificate below
       keeps every covered member's row. *)
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
         (Service.proc "get" 0 (Service.const (Value.int 7)))
     with
    | Ok () -> ()
    | Error e -> failwith (Service.error_to_string e));
    let alice_sub = Subject.make alice bottom in
    let link ?profile ext =
      match Linker.link ?profile kernel ~subject:alice_sub ext with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
    in
    link
      (Extension.make ~name:"relay" ~author:alice ~imports:[ store ]
         ~provides:
           [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
         ());
    link
      ~profile:
        (Certificate.make_profile ~name:"svc-callers"
           ~prefixes:[ Path.of_string "/svc"; Path.of_string "/ext" ]
           ~max_depth:2 ~validity:4 ())
      (Extension.make ~name:"front" ~author:alice ~imports:[ fetch ] ());
    kernel
  in
  let list_certs () =
    let kernel = build () in
    Format.printf "%-10s %-9s %-12s %-6s %-7s %-5s %s@." "EXTENSION" "CERTIFIED"
      "PROFILE" "ISSUED" "EXPIRES" "DEPTH" "COVERS";
    List.iter
      (fun (c : Certificate.t) ->
        Format.printf "%-10s %-9s %-12s %-6d %-7s %-5s %s@." c.Certificate.extension
          (if Certificate.fully_certified c then "yes" else "no")
          (match c.Certificate.profile with
          | Some p -> p.Certificate.profile_name
          | None -> "-")
          c.Certificate.issued_at
          (match c.Certificate.expires_at with
          | Some horizon -> string_of_int horizon
          | None -> "-")
          (match c.Certificate.delegation with
          | Some d -> string_of_int d.Certificate.depth
          | None -> "-")
          (String.concat ","
             (Array.to_list
                (Array.map
                   (fun (cover : Certificate.cover) ->
                     Principal.individual_name cover.Certificate.principal)
                   c.Certificate.covers))))
      (Kernel.certificates kernel);
    Format.printf "certificate epoch: %d@." (Kernel.cert_epoch kernel);
    0
  in
  let run () =
    try list_certs () with
    | Failure message ->
      Format.printf "certs: setup failed: %s@." message;
      1
  in
  Cmd.v
    (Cmd.info "certs"
       ~doc:
         "List link-time certificates and their lifecycle state (profiles, expiry, \
          delegation, covers) over a demo world.")
    Term.(const run $ const ())

(* {1 metrics: the observability registry over a live workload} *)

let metrics_cmd =
  let module Metrics = Exsec_obs.Metrics in
  let module Trace = Exsec_obs.Trace in
  let run json trace rounds =
    (* The registry boots disabled (the noop mode the kernel pays for
       by default); collection is on only for the lifetime of this
       command's workload. *)
    Metrics.set_enabled true;
    if trace then Trace.set_enabled true;
    match Scenario.build_checked () with
    | Error label ->
      Format.printf "scenario setup refused: %s@." label;
      1
    | Ok scenario ->
    for _round = 1 to Stdlib.max 1 rounds do
      List.iter
        (fun (name, _) ->
          List.iter
            (fun file ->
              ignore (Scenario.measured_read scenario ~subject_name:name ~file))
            Scenario.files)
        (Scenario.subjects scenario)
    done;
    (* Also exercise the capability-handle fast path so the handle.*
       instruments show up in the snapshot: one handle hammered per
       round, one policy re-set to force a stale→remint transition,
       one use-after-close denial at the end. *)
    let module Kernel = Exsec_extsys.Kernel in
    let module Service = Exsec_extsys.Service in
    let module Value = Exsec_extsys.Value in
    let kernel = scenario.Scenario.kernel in
    let admin = Kernel.admin_subject kernel in
    let ping_path = Path.of_string "/svc/ping" in
    (match
       Kernel.install_proc kernel ~subject:admin ping_path
         ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin) ())
         (Service.proc "ping" 0 (Service.const Value.unit))
     with
    | Ok () | Error _ -> ());
    (match Kernel.open_handle kernel ~subject:admin ~caller:"exsecd" ping_path with
    | Error _ -> ()
    | Ok handle ->
      for _round = 1 to 100 * Stdlib.max 1 rounds do
        ignore (Kernel.call_handle kernel handle [])
      done;
      let monitor = Kernel.monitor kernel in
      Reference_monitor.set_policy monitor (Reference_monitor.policy monitor);
      ignore (Kernel.call_handle kernel handle []);
      ignore (Kernel.close_handle kernel handle);
      ignore (Kernel.call_handle kernel handle []));
    let snap = Metrics.snapshot () in
    if json then print_endline (Metrics.snapshot_to_json snap)
    else begin
      Format.printf "%a@." Metrics.pp_snapshot snap;
      if trace then begin
        Format.printf "@.recent call spans:@.";
        List.iter
          (fun span -> print_endline ("  " ^ Trace.span_to_line span))
          (Trace.tail ())
      end
    end;
    0
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON.") in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Also collect and print recent call spans.")
  in
  let rounds =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"N" ~doc:"Repetitions of the scenario access matrix.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the paper's scenario with collection enabled and print the kernel-wide \
          metrics registry: call/decision/audit counters and latency percentiles")
    Term.(const run $ json $ trace $ rounds)

(* {1 serve: the request front end} *)

let serve_cmd =
  let module Kernel = Exsec_extsys.Kernel in
  let module Transport = Exsec_serve.Transport in
  let module Server = Exsec_serve.Server in
  let module Metrics = Exsec_obs.Metrics in
  let run socket workers =
    match socket with
    | None ->
      Format.printf "serve needs a SOCKET path@.";
      1
    | Some path -> (
      Metrics.set_enabled true;
      match Scenario.build_checked () with
      | Error label ->
        Format.printf "scenario setup refused: %s@." label;
        1
      | Ok scenario ->
        let kernel = scenario.Scenario.kernel in
        (match
           Exsec_services.Memfs.install_service scenario.Scenario.fs
             ~subject:(Kernel.admin_subject kernel)
         with
        | Ok () | Error _ -> ());
        let transport = Transport.Unix_socket.listen path in
        let server = Server.create ?workers kernel transport in
        Server.start server;
        Format.printf "serving the scenario world on %s (%d workers); SIGINT stops@."
          path (Server.workers server);
        let stop = Atomic.make false in
        let request_stop _ = Atomic.set stop true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        while not (Atomic.get stop) do
          Unix.sleepf 0.2
        done;
        Format.printf "stopping@.";
        Server.stop server;
        Format.printf "%a@." Metrics.pp_snapshot (Metrics.snapshot ());
        0)
  in
  let socket =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path to listen on.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (default: cores - 1, max 8).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the scenario world over the request front end: authenticate principals, \
          run their requests through the kernel, apply quota backpressure")
    Term.(const run $ socket $ workers)

(* {1 attacks: three-prong fault injection} *)

let attacks_cmd =
  let run faulty_names =
    let parse name =
      match String.lowercase_ascii name with
      | "verifier" -> Java_sandbox.Verifier
      | "class-loader" | "classloader" -> Java_sandbox.Class_loader
      | "security-manager" | "securitymanager" -> Java_sandbox.Security_manager
      | other ->
        Format.printf "unknown prong %s (verifier|class-loader|security-manager)@." other;
        exit 1
    in
    let faulty = List.map parse faulty_names in
    List.iter
      (fun attack ->
        Format.printf "  %-45s %s@." attack.Java_sandbox.a_name
          (if Java_sandbox.breached ~faulty attack then "BREACHED" else "held"))
      Java_sandbox.attacks;
    Format.printf "breach fraction: %.2f@." (Java_sandbox.breach_fraction ~faulty);
    0
  in
  let faulty =
    Arg.(
      value
      & opt_all string []
      & info [ "faulty" ] ~docv:"PRONG"
          ~doc:"Inject a fault into a prong (repeatable): verifier, class-loader, security-manager.")
  in
  Cmd.v
    (Cmd.info "attacks"
       ~doc:"Show which attack classes the Java three-prong design admits under faults")
    Term.(const run $ faulty)

let main_cmd =
  let doc = "security for extensible systems: the HotOS'97 model, runnable" in
  Cmd.group
    (Cmd.info "exsecd" ~version:"1.0.0" ~doc)
    [
      scenario_cmd; models_cmd; check_cmd; attacks_cmd; policy_cmd; shell_cmd;
      analyze_cmd; certs_cmd; metrics_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
