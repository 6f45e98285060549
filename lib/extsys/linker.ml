open Exsec_core
module Metrics = Exsec_obs.Metrics

let m_links = Metrics.counter "linker.links"
let m_link_failures = Metrics.counter "linker.link_failures"
let m_unloads = Metrics.counter "linker.unloads"
let m_certificates = Metrics.counter "linker.certificates_issued"
let m_chain_proofs = Metrics.counter "linker.chain_proofs"
let m_chain_handles = Metrics.counter "linker.chain_handles"

type link_error =
  | Import_denied of { import : Path.t; error : Service.error }
  | Extend_denied of { event : Path.t; error : Service.error }
  | Provide_failed of { at : Path.t; error : Service.error }
  | Init_failed of Service.error
  | Already_loaded of string
  | Quota_refused of string

let pp_link_error ppf = function
  | Import_denied { import; error } ->
    Format.fprintf ppf "import %a: %a" Path.pp import Service.pp_error error
  | Extend_denied { event; error } ->
    Format.fprintf ppf "extend %a: %a" Path.pp event Service.pp_error error
  | Provide_failed { at; error } ->
    Format.fprintf ppf "provide %a: %a" Path.pp at Service.pp_error error
  | Init_failed error -> Format.fprintf ppf "init: %a" Service.pp_error error
  | Already_loaded name -> Format.fprintf ppf "extension %s is already loaded" name
  | Quota_refused message -> Format.fprintf ppf "quota: %s" message

(* The subject under the extension's static class, when it has one. *)
let cap (extension : Extension.t) subject =
  match extension.Extension.static_class with
  | None -> subject
  | Some klass -> Subject.with_ceiling subject klass

module Linked = struct
  type t = {
    kernel : Kernel.t;
    extension : Extension.t;
    import_table : (Path.t * Handle.h) list;
        (* each import is minted as a capability handle at link time;
           the handle pins the link-time (capped) subject, so calls
           through it are exactly the access the link authorized *)
    provided_paths : Path.t list;
    certificate : Exsec_analysis.Certificate.t option;
    chain_table : (Path.t * Handle.h) list;
        (* provably-redundant transitive call sites (reached through
           other extensions' provides, never imported directly): the
           chain analysis picks them, the monitor mints their handles
           under the link-time subject, and the handle rule keeps them
           valid, so drift fails closed *)
  }

  let extension linked = linked.extension
  let name linked = linked.extension.Extension.ext_name
  let imports linked = List.map fst linked.import_table
  let provided_paths linked = linked.provided_paths
  let certificate linked = linked.certificate
  let chain_imports linked = List.map fst linked.chain_table

  (* The one scan every entry point shares: no closure, no option, a
     miss is [Not_found]. *)
  let rec find_handle path = function
    | [] -> raise_notrace Not_found
    | (p, handle) :: rest -> if Path.equal p path then handle else find_handle path rest

  let handle_in table path = try Some (find_handle path table) with Not_found -> None
  let chain_handle linked path = handle_in linked.chain_table path
  let import_handle linked path = handle_in linked.import_table path

  let call_chain linked path args =
    match find_handle path linked.chain_table with
    | handle -> Kernel.call_handle linked.kernel handle args
    | exception Not_found ->
      Error (Service.Unresolved (Path.to_string path ^ ": not a certified chain target"))

  let subject_for linked subject = cap linked.extension subject

  let not_imported path =
    Error (Service.Unresolved (Path.to_string path ^ ": not in the import table"))

  let call linked ~subject path args =
    match find_handle path linked.import_table with
    | handle ->
      Kernel.call_proved linked.kernel handle ~subject:(subject_for linked subject)
        ~caller:(name linked) path args
    | exception Not_found -> not_imported path

  let call_import linked path args =
    match find_handle path linked.import_table with
    | handle -> Kernel.call_handle linked.kernel handle args
    | exception Not_found -> not_imported path
end

let ext_dir name = Path.of_string ("/ext/" ^ name)

(* Resolve one extends with [Extend]; the admitted node's own handler
   set is where the handler will go. *)
let check_extend kernel ~subject (ext : Extension.extends) =
  match
    Resolver.resolve (Kernel.resolver kernel) ~subject ~mode:Access_mode.Extend
      ext.Extension.event
  with
  | Ok node -> (
    match Namespace.payload node with
    | Some (Kernel.Event handlers) -> Ok (ext, handlers)
    | Some _ | None ->
      Error
        (Extend_denied
           {
             event = ext.Extension.event;
             error = Service.Unresolved (Path.to_string ext.Extension.event ^ ": not an event");
           }))
  | Error denial ->
    Error (Extend_denied { event = ext.Extension.event; error = Kernel.error_of_denial denial })

(* Expand SPIN-style domain imports into the concrete procedures
   currently under each interface mount point.  Listing happens under
   the (capped) linking authority, so even discovering the domain's
   contents is access checked. *)
let expand_domains kernel ~subject domains =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc domain ->
      let* paths = acc in
      List.fold_left
        (fun acc mount ->
          let* paths = acc in
          match Resolver.list_dir (Kernel.resolver kernel) ~subject mount with
          | Error denial ->
            Error (Import_denied { import = mount; error = Kernel.error_of_denial denial })
          | Ok names ->
            let callable =
              List.filter_map
                (fun name ->
                  let path = Path.child mount name in
                  match Namespace.find (Kernel.namespace kernel) path with
                  | Ok node when not (Namespace.is_dir node) -> Some path
                  | Ok _ | Error _ -> None)
                names
            in
            Ok (paths @ callable))
        (Ok paths) (Domain.interfaces domain))
    (Ok []) domains

(* [check] each item in order; the first error stops the walk. *)
let rec check_all check = function
  | [] -> Ok []
  | item :: rest -> (
    match check item with
    | Ok checked -> Result.map (fun tail -> checked :: tail) (check_all check rest)
    | Error e -> Error e)

let rollback kernel installed =
  List.iter
    (fun path ->
      match Namespace.remove (Kernel.namespace kernel) path with
      | Ok () | Error _ -> ())
    installed

let install_provides kernel ~subject (extension : Extension.t) =
  let dir = ext_dir extension.Extension.ext_name in
  let owner = extension.Extension.author in
  let klass =
    match extension.Extension.static_class with
    | Some klass -> klass
    | None -> Subject.effective_class subject
  in
  let dir_meta =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      klass
  in
  let proc_meta () =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual owner);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
      klass
  in
  match Kernel.add_dir kernel ~subject dir ~meta:dir_meta with
  | Error error -> Error (Provide_failed { at = dir; error })
  | Ok () ->
    let rec install installed = function
      | [] -> Ok (List.rev installed)
      | (p : Extension.provided) :: rest -> (
        let path = Path.child dir p.Extension.at in
        let proc = Service.proc p.Extension.at p.Extension.arity p.Extension.body in
        match Kernel.install_proc kernel ~subject path ~meta:(proc_meta ()) proc with
        | Ok () -> install (path :: installed) rest
        | Error error ->
          rollback kernel (dir :: installed);
          Error (Provide_failed { at = path; error }))
    in
    install [ dir ] extension.Extension.provides
    |> Result.map (fun installed -> dir :: List.filter (fun p -> not (Path.equal p dir)) installed)

(* Register into the sets [check_extend] admitted; returns them, the
   only sets unloading touches. *)
let register_handlers ~subject (extension : Extension.t) admitted =
  let klass =
    match extension.Extension.static_class with
    | Some klass -> klass
    | None -> Subject.effective_class subject
  in
  List.map
    (fun ((ext : Extension.extends), handlers) ->
      Dispatcher.register handlers
        {
          Dispatcher.owner = extension.Extension.ext_name;
          klass;
          guard = ext.Extension.guard;
          impl = ext.Extension.handler_body;
        };
      handlers)
    admitted

let unregister_handlers name handler_sets =
  List.iter (fun handlers -> Dispatcher.unregister_owner handlers name) handler_sets

let link_unmetered ?profile kernel ~subject (extension : Extension.t) =
  let name = extension.Extension.ext_name in
  let quota_check =
    Quota.check_extensions (Kernel.quota kernel) extension.Extension.author
      ~loaded:(Kernel.loaded_by kernel extension.Extension.author)
  in
  if Kernel.find_loaded kernel name <> None then Error (Already_loaded name)
  else (
    match quota_check with
    | Error denial -> Error (Quota_refused (Format.asprintf "%a" Quota.pp_denial denial))
    | Ok () ->
  begin
    (* All link-time checks run under the extension's capped authority. *)
    let capped = cap extension subject in
    let ( let* ) = Result.bind in
    let* domain_imports =
      expand_domains kernel ~subject:capped extension.Extension.import_domains
    in
    let all_imports =
      List.sort_uniq Path.compare (extension.Extension.imports @ domain_imports)
    in
    (* From here on failures must also close every handle already
       minted for this extension — linking stays transactional for
       capabilities too.  [open_handle] resolves one path with
       [Execute] under the capped subject and mints its handle. *)
    let minted = ref [] in
    let open_handle path =
      let result = Kernel.open_handle kernel ~subject:capped ~caller:name path in
      Result.iter (fun handle -> minted := handle :: !minted) result;
      result
    in
    let result =
    let* import_table =
      check_all
        (fun import ->
          match open_handle import with
          | Ok handle -> Ok (import, handle)
          | Error error -> Error (Import_denied { import; error }))
        all_imports
    in
    let* admitted = check_all (check_extend kernel ~subject:capped) extension.Extension.extends in
    (* Publication also happens at the extension's (capped) authority:
       its directory and procedures carry the extension's class. *)
    let* installed = install_provides kernel ~subject:capped extension in
    let handler_sets = register_handlers ~subject extension admitted in
    (* With a clearance registry at hand, prove the import set over
       the whole registered session space: imports proved Always_allow
       are served from their handle for every covered subject until the
       proof's state moves (Exsec_analysis.Certificate).  The chain
       analysis widens the proof interprocedurally: call sites
       reachable from this extension's code through other extensions'
       provides that prove Always_allow for every registered session
       are folded into the certificate (soundly: a proof over the full
       session interval covers every capped sub-session) and
       pre-minted as capability handles through the monitor.  The graph
       has no edge through event dispatch: a handler runs under its
       owner's name, outside this extension's proof.  When the code
       reaches no site but its own imports (no import is a provide, and
       no domain grew since [expand_domains]), the analysis can add no
       target and is not run. *)
    let certificate, chain_targets =
      match Kernel.registry kernel with
      | None -> None, []
      | Some registry ->
        let module Cg = Exsec_analysis.Callgraph in
        let graph = Kernel.call_graph kernel extension in
        let code = Cg.code_node name in
        let transitive =
          if Cg.reaches_only graph ~from:code ~sites:all_imports then []
          else
            let entries =
              List.map
                (fun principal ->
                  {
                    Cg.entry_principal = principal;
                    entry_node = code;
                    entry_cap = extension.Extension.static_class;
                  })
                (Clearance.registered registry)
            in
            let chain_report =
              Exsec_analysis.Chain_certify.analyze ~db:(Kernel.db kernel) ~registry
                ~policy:(Reference_monitor.policy (Kernel.monitor kernel))
                (Cg.with_entries graph entries)
            in
            List.filter
              (fun path -> not (List.exists (Path.equal path) all_imports))
              (Exsec_analysis.Chain_certify.redundant_targets chain_report)
        in
        let certificate =
          Exsec_analysis.Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry
            ~namespace:(Kernel.namespace kernel)
            ?static_class:extension.Extension.static_class ?profile
            ~now:(Kernel.cert_epoch kernel) ~extension:name
            ~imports:(all_imports @ transitive) ()
        in
        Some certificate, transitive
    in
    Metrics.add m_chain_proofs (List.length chain_targets);
    let chain_proved path =
      match certificate with
      | None -> false
      | Some certificate -> (
        match Exsec_analysis.Certificate.verdict_for certificate path with
        | Some verdict ->
          Exsec_analysis.Verdict.equal verdict Exsec_analysis.Verdict.Always_allow
        | None -> false)
    in
    let chain_table =
      List.filter_map
        (fun path ->
          (* A site the certificate itself did not certify — outside
             the profile's modes or prefixes — gets no pre-minted
             handle.  The mint is an ordinary monitor decision under
             the link-time subject, so the handle outlives the
             certificate. *)
          if not (chain_proved path) then None
          else
            match open_handle path with
            | Ok handle ->
              Metrics.incr m_chain_handles;
              Some (path, handle)
            | Error _ ->
              (* the monitor refused (the state moved after the
                 analysis): fail closed, the checked path still covers
                 the site *)
              None)
        chain_targets
    in
    let linked =
      {
        Linked.kernel; extension; import_table; provided_paths = installed;
        certificate; chain_table;
      }
    in
    (* The certificate enters the kernel table once the extension is
       loaded, recording its Always_allow proofs on the import handles
       (the any-subject dispatch of [Linked.call]; the handles keep
       their own monitor justification).  A failed link never gets
       that far. *)
    let finish () =
      Kernel.note_loaded kernel extension ~installed ~handler_sets
        ~imports:(List.map snd import_table) ~chain:(List.map snd chain_table);
      Option.iter (Kernel.note_certificate kernel) certificate;
      Ok linked
    in
    match extension.Extension.init with
    | None -> finish ()
    | Some init -> (
      let ctx =
        Kernel.make_ctx kernel ~subject:capped ~caller:name
      in
      match init ctx with
      | Ok () -> finish ()
      | Error error ->
        unregister_handlers name handler_sets;
        rollback kernel (List.rev installed);
        Error (Init_failed error))
    in
    (match result with
    | Ok _ -> ()
    | Error _ ->
      Kernel.revoke_certificate kernel name;
      List.iter (fun handle -> ignore (Kernel.close_handle kernel handle)) !minted);
    result
  end)

let link ?profile kernel ~subject extension =
  let result = link_unmetered ?profile kernel ~subject extension in
  (match result with
  | Ok linked ->
    Metrics.incr m_links;
    if Option.is_some linked.Linked.certificate then Metrics.incr m_certificates
  | Error _ -> Metrics.incr m_link_failures);
  result

let unload kernel ~subject name =
  match Kernel.find_loaded kernel name with
  | None -> Error (Service.Unresolved (name ^ ": not loaded"))
  | Some (_extension, installed, handler_sets) ->
    let rec remove_all = function
      | [] ->
        unregister_handlers name handler_sets;
        Kernel.forget_loaded kernel name;
        Metrics.incr m_unloads;
        Ok ()
      | path :: rest -> (
        match Resolver.remove (Kernel.resolver kernel) ~subject path with
        | Ok () -> remove_all rest
        (* Gone already (an earlier unload was refused part way): the
           retry must be able to finish. *)
        | Error (Resolver.Name_error (Namespace.Not_found _)) -> remove_all rest
        | Error denial -> Error (Kernel.error_of_denial denial))
    in
    (* Leaves first, then the extension directory. *)
    remove_all (List.rev installed)
