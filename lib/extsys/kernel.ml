open Exsec_core
module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace
module Certificate = Exsec_analysis.Certificate

(* Call-path instruments: every checked invocation by path (handle
   calls count below).  Every trace span of the kernel hot path is born
   here and threaded through resolution and the monitor. *)
let m_calls = Metrics.counter "kernel.calls"
let m_call_errors = Metrics.counter "kernel.call_errors"
let m_quota_denied = Metrics.counter "kernel.quota_denied"
let m_broadcasts = Metrics.counter "kernel.broadcasts"
let m_spawns = Metrics.counter "kernel.spawns"
let m_call_ns = Metrics.histogram "kernel.call_ns"

(* Handle-path instruments.  Conservation invariant, relied on by the
   multi-domain stress suite: handle.calls = handle.hits +
   handle.stale + handle.use_after_close, exactly — every call_handle
   bumps the calls counter and then exactly one of the other three; a
   [call_proved] served from its grant counts as one call and one hit.
   handle.reminted counts the stale calls whose revalidation succeeded
   and refreshed the slot in place. *)
let m_handle_opens = Metrics.counter "handle.opens"
let m_handle_calls = Metrics.counter "handle.calls"
let m_handle_hits = Metrics.counter "handle.hits"
let m_handle_stale = Metrics.counter "handle.stale"
let m_handle_use_closed = Metrics.counter "handle.use_after_close"
let m_handle_reminted = Metrics.counter "handle.reminted"
let m_handle_call_ns = Metrics.histogram "handle.call_ns"

(* Certificate-lifecycle instruments: every certificate entering the
   kernel table (cert.issued), the subset entering as delegations
   (cert.delegations), and the two ways one leaves — an expiry sweep
   (cert.expired) or a revocation, whether targeted or CRL-style
   (cert.revoked). *)
let m_cert_issued = Metrics.counter "cert.issued"
let m_cert_expired = Metrics.counter "cert.expired"
let m_cert_revoked = Metrics.counter "cert.revoked"
let m_cert_delegations = Metrics.counter "cert.delegations"

type entry = ..

type entry +=
  | Proc of Service.proc
  | Event of Dispatcher.t
  | Thread_ref of Thread.t

(* A grant is everything [call] would have computed for one
   (subject, caller, path) triple, captured at mint time: the resolved
   target (with its invocation context prebuilt, so the hot path
   allocates nothing), plus what the admitting decision read — the
   policy, the resolution chain's nodes with the value each held, and
   the subject's membership, held twice: the principal-database
   generation (the cheap test while nothing changed) and the subject's
   own snapshot row (the scoped test once something did).
   [call_handle] may dispatch without re-entering the reference
   monitor exactly while those are still in force (see [grant_fresh]);
   any drift fails closed into the checked path. *)
type grant_target =
  | Grant_proc of Service.proc * Service.ctx
  | Grant_event of Dispatcher.t

type grant = {
  g_path : Path.t;
  g_subject : Subject.t;
  g_caller : string;
  g_target : grant_target;
  g_policy : Policy.t;  (* the policy the decision read *)
  g_db_generation : int;  (* the generation of the snapshot it read *)
  g_row : Principal.Db.Snapshot.row;  (* the subject's row in that snapshot *)
  g_nodes : entry Namespace.node array;  (* resolution chain, root first, target last *)
  g_metas : Meta.t array;  (* the value each node held, as the decision read it *)
  g_proof : Certificate.t option;
      (* the caller's certificate, when it proved this path
         [Always_allow] over exactly [g_metas], for [call_proved];
         dropping or replacing the certificate or a stale re-mint
         strips it *)
}

(* A loaded extension, with every handle its link minted: unloading
   closes exactly these, and its certificate's proofs ride on the
   import handles. *)
type loaded = {
  extension : Extension.t;
  installed : Path.t list;
  handler_sets : Dispatcher.t list;
  imports : Handle.h list;
  chain : Handle.h list;
}

type t = {
  monitor : Reference_monitor.t;
  resolver : entry Resolver.t;
  sched : Sched.t;
  hierarchy : Level.hierarchy;
  universe : Category.universe;
  admin : Principal.individual;
  registry : Clearance.t option;
  mutable next_thread_id : int;
  loaded : (string, loaded) Hashtbl.t;
  loaded_by : (Principal.individual, int) Hashtbl.t;
      (* per-author count of [loaded], kept beside it for the quota *)
  certificates : (string, Certificate.t) Hashtbl.t;
  quota : Quota.t;
  handles : grant Handle.t;
  cert_epoch : int Atomic.t;
      (* the kernel's certificate clock: validity horizons are measured
         in ticks of this counter ([advance_cert_epoch]); independent of
         the policy, so expiring a certificate never invalidates
         unrelated handles or certificates *)
}

let monitor kernel = kernel.monitor
let cache_stats _kernel = None
let quota kernel = kernel.quota
let resolver kernel = kernel.resolver
let namespace kernel = Resolver.namespace kernel.resolver
let sched kernel = kernel.sched
let db kernel = Reference_monitor.db kernel.monitor

let batch_principals kernel f = Principal.Db.batch (Reference_monitor.db kernel.monitor) f
let hierarchy kernel = kernel.hierarchy
let universe kernel = kernel.universe
let registry kernel = kernel.registry

let admin_subject kernel =
  (* The administrator is a Bell-LaPadula trusted subject: part of the
     TCB, allowed to publish low-classified services from a high
     clearance. *)
  Subject.make ~trusted:true kernel.admin
    (Security_class.top kernel.hierarchy kernel.universe)

let default_meta kernel ~owner ?klass ?(callable = true) () =
  let klass =
    match klass with
    | Some klass -> klass
    | None -> Security_class.bottom kernel.hierarchy kernel.universe
  in
  let world_modes =
    if callable then [ Access_mode.List; Access_mode.Execute ] else [ Access_mode.List ]
  in
  let acl =
    Acl.of_entries [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone world_modes ]
  in
  Meta.make ~owner ~acl klass

let error_of_denial = Service.error_of_denial

let boot ?policy ?audit_capacity ?registry ~db ~admin ~hierarchy ~universe () =
  let monitor = Reference_monitor.create ?policy ?audit_capacity db in
  let bottom = Security_class.bottom hierarchy universe in
  let dir_acl =
    Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ]
  in
  let root_meta = Meta.make ~owner:admin ~acl:dir_acl bottom in
  let ns = Namespace.create ~root_meta () in
  let kernel =
    {
      monitor;
      resolver = Resolver.create monitor ns;
      sched = Sched.create ();
      hierarchy;
      universe;
      admin;
      registry;
      next_thread_id = 0;
      loaded = Hashtbl.create 8;
      loaded_by = Hashtbl.create 8;
      certificates = Hashtbl.create 8;
      quota = Quota.create ();
      handles = Handle.create ();
      cert_epoch = Atomic.make 0;
    }
  in
  let admin_sub = admin_subject kernel in
  let mkdir name acl =
    let meta = Meta.make ~owner:admin ~acl bottom in
    match Resolver.create_dir kernel.resolver ~subject:admin_sub (Path.of_string name) ~meta with
    | Ok _ -> ()
    | Error denial ->
      invalid_arg (Format.asprintf "Kernel.boot: cannot create %s: %a" name Resolver.pp_denial denial)
  in
  (* /ext and /threads are world-writable: any principal may load an
     extension or spawn a thread — what the extension may then touch
     is decided by the import/extend checks, and control over each
     thread by its own metadata.  Administrators can tighten these
     ACLs after boot. *)
  let open_acl =
    Acl.of_entries
      [
        Acl.allow_all (Acl.Individual admin);
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Write ];
      ]
  in
  mkdir "/svc" dir_acl;
  mkdir "/ext" open_acl;
  mkdir "/threads" open_acl;
  kernel

(* {1 Publishing} *)

let add_dir kernel ~subject path ~meta =
  match Resolver.create_dir kernel.resolver ~subject path ~meta with
  | Ok _ -> Ok ()
  | Error denial -> Error (error_of_denial denial)

let install_entry kernel ~subject path ~meta entry =
  match Resolver.create_leaf kernel.resolver ~subject path ~meta entry with
  | Ok _ -> Ok ()
  | Error denial -> Error (error_of_denial denial)

let install_proc kernel ~subject path ~meta proc =
  install_entry kernel ~subject path ~meta (Proc proc)

let install_event kernel ~subject path ~meta =
  install_entry kernel ~subject path ~meta (Event (Dispatcher.create ()))

let install_iface kernel ~subject ~mount ~meta iface impl_of =
  let ( let* ) = Result.bind in
  let* () = add_dir kernel ~subject mount ~meta:(meta "") in
  List.fold_left
    (fun acc (sig_ : Iface.proc_sig) ->
      let* () = acc in
      let proc = Service.proc sig_.Iface.name sig_.Iface.arity (impl_of sig_.Iface.name) in
      install_proc kernel ~subject (Path.child mount sig_.Iface.name) ~meta:(meta sig_.Iface.name) proc)
    (Ok ()) iface.Iface.procs

(* {1 Invocation} *)

(* A diagnostic: no call path consults it. *)
let certificate_admits kernel ~caller ~subject path =
  match Hashtbl.find_opt kernel.certificates caller with
  | None -> false
  | Some certificate ->
    Certificate.admits certificate ~monitor:kernel.monitor ~namespace:(namespace kernel)
      ~subject ~now:(Atomic.get kernel.cert_epoch) path

let quota_exceeded denial =
  Metrics.incr m_quota_denied;
  Error (Service.Quota_exceeded (Format.asprintf "%a" Quota.pp_denial denial))

let count_error result =
  (match result with
  | Ok _ -> ()
  | Error _ -> Metrics.incr m_call_errors);
  result

(* Every entry into extension code goes through here: a fault stays
   inside the extension and answers its caller with a typed error (see
   service.mli for what is contained). *)
let guarded impl ctx args =
  try impl ctx args with
  | Value.Type_error message -> Error (Service.Bad_argument message)
  | Failure message -> Error (Service.Ext_failure message)
  | Out_of_memory as e -> raise e
  | e -> Error (Service.Ext_failure (Printexc.to_string e))

let run_proc proc ctx args =
  match Service.check_arity proc args with
  | Error e -> Error e
  | Ok () -> guarded proc.Service.impl ctx args

let rec make_ctx kernel ~subject ~caller =
  {
    Service.subject;
    caller;
    call = (fun path args -> call kernel ~subject ~caller path args);
  }

(* A handler runs with the caller's authority capped by the handler's
   static class (paper, section 2.2). *)
and run_handler kernel ~subject (handler : Dispatcher.handler) args =
  let capped = Subject.with_ceiling subject handler.Dispatcher.klass in
  guarded handler.Dispatcher.impl
    (make_ctx kernel ~subject:capped ~caller:handler.Dispatcher.owner)
    args

(* [handlers] is the set the resolved node owns. *)
and dispatch_event kernel ~subject path handlers args =
  let caller_class = Subject.effective_class subject in
  match Dispatcher.select handlers ~caller_class ~args with
  | handler -> run_handler kernel ~subject handler args
  | exception Not_found -> Error (Service.No_handler (Path.to_string path))

(* The checked call itself, shared by both paths of [call]: [span] is
   the call's own span, or [Trace.none] when nothing observes. *)
and call_body kernel ~span ~subject ~caller path args =
  match Quota.charge_call kernel.quota (Subject.principal subject) with
  | Error denial ->
    if Trace.active span then Trace.annotate span "quota" "denied";
    quota_exceeded denial
  | Ok () -> (
    (* An inactive span is not handed down: boxing it would cost
       every untraced call two words. *)
    let span = if Trace.active span then Some span else None in
    match Resolver.resolve ?span kernel.resolver ~subject ~mode:Access_mode.Execute path with
    | Error denial -> Error (error_of_denial denial)
    | Ok node -> (
      match Namespace.payload node with
      | Some (Proc proc) -> run_proc proc (make_ctx kernel ~subject ~caller) args
      | Some (Event handlers) -> dispatch_event kernel ~subject path handlers args
      | Some _ | None -> Error (Service.Unresolved (Path.to_string path ^ ": not callable"))))

and call_observed kernel ~subject ~caller path args =
  let t0 = Metrics.start_counted m_calls m_call_ns in
  let span = Trace.start "kernel.call" in
  if Trace.active span then begin
    Trace.annotate span "path" (Path.to_string path);
    Trace.annotate span "subject"
      (Principal.individual_name (Subject.principal subject));
    Trace.annotate span "caller" caller
  end;
  let result = count_error (call_body kernel ~span ~subject ~caller path args) in
  if Trace.active span then
    Trace.annotate span "result"
      (match result with
      | Ok _ -> "ok"
      | Error _ -> "error");
  Trace.finish span;
  Metrics.stop_timing m_call_ns t0;
  result

and call kernel ~subject ~caller path args =
  if Trace.observing () then call_observed kernel ~subject ~caller path args
  else call_body kernel ~span:Trace.none ~subject ~caller path args

let broadcast kernel ~subject ~caller:_ path args =
  Metrics.incr m_broadcasts;
  match Quota.charge_call kernel.quota (Subject.principal subject) with
  | Error denial -> quota_exceeded denial
  | Ok () -> (
    match Resolver.resolve kernel.resolver ~subject ~mode:Access_mode.Execute path with
    | Error denial -> Error (error_of_denial denial)
    | Ok node -> (
      match Namespace.payload node with
      | Some (Event handlers) ->
        let caller_class = Subject.effective_class subject in
        let handlers = Dispatcher.select_all handlers ~caller_class ~args in
        Ok
          (List.map
             (fun handler ->
               handler.Dispatcher.owner, run_handler kernel ~subject handler args)
             handlers)
      | Some _ | None -> Error (Service.Unresolved (Path.to_string path ^ ": not an event"))))

(* {1 Capability handles}

   [open_handle] decides once and files the grant; [call_handle] is the
   hot path — slot probe, policy and chain compares, dispatch, no
   allocation — and any drift fails closed into a checked
   re-resolution that re-mints the slot in place (see kernel.mli). *)

(* The membership half is the one certificates share: the generation,
   or else the very row the decision read. *)
let grant_fresh kernel g =
  Reference_monitor.policy kernel.monitor == g.g_policy
  && Subject.membership_unmoved g.g_subject (db kernel) ~generation:g.g_db_generation g.g_row
  && Namespace.holds g.g_nodes g.g_metas

(* Preallocated so the use-after-close refusal is itself allocation
   free.  A closed handle denotes no object at all, which is exactly
   [Not_an_object]; the oracle never compares this against a path call
   because a path has no notion of closure. *)
let closed_handle_error :
    (Value.t, Service.error) result =
  Error
    (Service.Denied
       { at = "<handle>"; mode = Access_mode.Execute; denial = Decision.Not_an_object })

(* What a mint's decision reads, read before it: the policy, the
   published snapshot (the database generation is its own) and the
   chain's nodes with the value each holds.  The decision reads exactly
   these ([Resolver.resolve_chain]), so the grant keeps what it read.
   The path is walked again once the values are read and must reach
   the same target, so every node on the chain was still linked then
   (a directory is removed only empty): a node removed before its value
   was read may hold its retirement copy, which no grant may keep. *)
type pre_read = {
  policy : Policy.t;
  snapshot : Principal.Db.Snapshot.t;
  nodes : entry Namespace.node array;
  metas : Meta.t array;
}

let rec pre_read kernel path =
  let ns = namespace kernel in
  match Namespace.chain ns path with
  | None -> None
  | Some chain -> (
    let policy = Reference_monitor.policy kernel.monitor in
    let snapshot = Principal.Db.snapshot (db kernel) in
    let nodes = Array.of_list chain in
    let metas = Array.map Namespace.meta nodes in
    match Namespace.find ns path with
    | Ok target when target == nodes.(Array.length nodes - 1) ->
      Some { policy; snapshot; nodes; metas }
    | Ok _ | Error _ -> pre_read kernel path)

(* The checked resolution a grant rests on: [Execute] on [path],
   decided on [pre]; when the path did not resolve, the walk's own
   refusal ([Ok] only if a racing insert made it resolve since). *)
let resolve_pre kernel pre ~subject path =
  match pre with
  | Some pre ->
    Resolver.resolve_chain kernel.resolver pre.policy pre.snapshot ~subject
      ~mode:Access_mode.Execute path pre.nodes pre.metas
  | None -> Resolver.resolve kernel.resolver ~subject ~mode:Access_mode.Execute path

(* The grant a decision on [pre] admitted. *)
let mint pre ~path ~subject ~caller ~target =
  { g_path = path; g_subject = subject; g_caller = caller; g_target = target;
    g_policy = pre.policy; g_db_generation = Principal.Db.Snapshot.generation pre.snapshot;
    g_row =
      Principal.Db.Snapshot.row pre.snapshot
        ~individual_id:(Subject.individual_id subject pre.snapshot);
    g_nodes = pre.nodes; g_metas = pre.metas; g_proof = None }

let grant_target_of_payload kernel ~subject ~caller ~reuse_ctx = function
  | Some (Proc proc) ->
    let ctx =
      match reuse_ctx with
      | Some ctx -> ctx
      | None -> make_ctx kernel ~subject ~caller
    in
    Some (Grant_proc (proc, ctx))
  | Some (Event handlers) -> Some (Grant_event handlers)
  | Some _ | None -> None

let rec open_handle kernel ~subject ~caller path =
  Metrics.incr m_handle_opens;
  let pre = pre_read kernel path in
  match pre, resolve_pre kernel pre ~subject path with
  | _, Error denial -> Error (Service.error_of_denial denial)
  | None, Ok _ ->
    (* The path resolved only after the pre-read: start over. *)
    open_handle kernel ~subject ~caller path
  | Some pre, Ok node -> (
    match
      grant_target_of_payload kernel ~subject ~caller ~reuse_ctx:None (Namespace.payload node)
    with
    | None -> Error (Service.Unresolved (Path.to_string path ^ ": not callable"))
    | Some target ->
      Ok (Handle.mint kernel.handles (mint pre ~path ~subject ~caller ~target)))

(* Run a grant's target under [subject].  Any subject but the grant's
   own gets a context of its own, so nested calls run under it. *)
let run_target kernel g ~subject target args =
  match target with
  | Grant_proc (proc, ctx) ->
    let ctx = if subject == g.g_subject then ctx else make_ctx kernel ~subject ~caller:g.g_caller in
    run_proc proc ctx args
  | Grant_event handlers -> dispatch_event kernel ~subject g.g_path handlers args

(* Stale slow path: re-run the fully checked resolution (audited) on
   a fresh pre-read; serve THIS call from the checked decision either
   way, and refresh the slot in place when the decision read the
   pre-read chain. *)
let call_handle_stale kernel h g args =
  let pre = pre_read kernel g.g_path in
  match resolve_pre kernel pre ~subject:g.g_subject g.g_path with
  | Error denial -> Error (Service.error_of_denial denial)
  | Ok node -> (
    let reuse_ctx =
      match g.g_target with Grant_proc (_, ctx) -> Some ctx | Grant_event _ -> None
    in
    match
      grant_target_of_payload kernel ~subject:g.g_subject ~caller:g.g_caller
        ~reuse_ctx (Namespace.payload node)
    with
    | None -> Error (Service.Unresolved (Path.to_string g.g_path ^ ": not callable"))
    | Some target ->
      Option.iter
        (fun pre ->
          if
            Handle.update kernel.handles h
              (* The re-mint sheds any proof recorded on the slot: the
                 proof was over values the slot no longer keeps. *)
              (mint pre ~path:g.g_path ~subject:g.g_subject ~caller:g.g_caller ~target)
          then Metrics.incr m_handle_reminted)
        pre;
      run_target kernel g ~subject:g.g_subject target args)

(* A live grant's call by [subject], after the freshness test: charge
   the caller, then dispatch from the grant or re-check.  A handle call
   runs as the grant's own subject; a proved call as its caller. *)
let dispatch_grant kernel h g ~subject ~fresh args =
  match Quota.charge_call kernel.quota (Subject.principal subject) with
  | Error denial -> quota_exceeded denial
  | Ok () ->
    if fresh then run_target kernel g ~subject g.g_target args
    else call_handle_stale kernel h g args

let call_handle_observed kernel h args =
  let t0 = Metrics.start_counted m_handle_calls m_handle_call_ns in
  let result =
    match Handle.deref kernel.handles h with
    | None ->
      Metrics.incr m_handle_use_closed;
      closed_handle_error
    | Some g ->
      let fresh = grant_fresh kernel g in
      Metrics.incr (if fresh then m_handle_hits else m_handle_stale);
      dispatch_grant kernel h g ~subject:g.g_subject ~fresh args
  in
  Metrics.stop_timing m_handle_call_ns t0;
  count_error result

let call_handle kernel h args =
  if Trace.observing () then call_handle_observed kernel h args
  else
    match Handle.deref kernel.handles h with
    | None -> closed_handle_error
    | Some g -> dispatch_grant kernel h g ~subject:g.g_subject ~fresh:(grant_fresh kernel g) args

(* The proved probe: the grant rule with the certificate's policy and
   the calling subject's cover and row in place of the grant's, so an
   edit ends it only for the callers whose row it moves.  The proof is
   over the grant's own values, so the grant's chain test is the
   proof's: a removal retires the removed node, so it also catches a
   target removed and republished. *)
let proof_admits kernel g subject =
  match g.g_proof with
  | None -> false
  | Some certificate ->
    Certificate.valid certificate ~monitor:kernel.monitor ~now:(Atomic.get kernel.cert_epoch)
    && Namespace.holds g.g_nodes g.g_metas
    && Certificate.admits_subject certificate ~db:(db kernel) subject

let call_proved kernel h ~subject ~caller path args =
  match Handle.deref kernel.handles h with
  | Some g when proof_admits kernel g subject ->
    if Trace.observing () then begin
      Metrics.incr m_handle_calls;
      Metrics.incr m_handle_hits;
      count_error (dispatch_grant kernel h g ~subject ~fresh:true args)
    end
    else dispatch_grant kernel h g ~subject ~fresh:true args
  | Some _ | None -> call kernel ~subject ~caller path args

let close_handle kernel h =
  match Handle.close kernel.handles h with Some _ -> true | None -> false

let handle_stats kernel = Handle.stats kernel.handles

let handle_target kernel h =
  match Handle.deref kernel.handles h with
  | Some g -> Some g.g_path
  | None -> None

let live_handles kernel =
  let acc = ref [] in
  Handle.iter kernel.handles (fun h g ->
      acc :=
        ( Handle.index h,
          Path.to_string g.g_path,
          g.g_caller,
          Principal.individual_name (Subject.principal g.g_subject) )
        :: !acc);
  List.rev !acc

(* {1 Threads} *)

let thread_path id = Path.of_string (Printf.sprintf "/threads/t%d" id)

let live_threads_of kernel principal =
  List.length
    (List.filter
       (fun thread ->
         Thread.is_alive thread
         && Principal.equal_individual (Subject.principal (Thread.subject thread)) principal)
       (Sched.threads kernel.sched))

let rec spawn kernel ~subject ~name ~body =
  match
    Quota.check_threads kernel.quota (Subject.principal subject)
      ~live:(live_threads_of kernel (Subject.principal subject))
  with
  | Error denial ->
    Error (Service.Quota_exceeded (Format.asprintf "%a" Quota.pp_denial denial))
  | Ok () -> spawn_uncounted kernel ~subject ~name ~body

and spawn_uncounted kernel ~subject ~name ~body =
  let id = kernel.next_thread_id in
  kernel.next_thread_id <- id + 1;
  let principal = Subject.principal subject in
  let meta =
    Meta.make ~owner:principal
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual principal) ])
      (Subject.effective_class subject)
  in
  let thread = Thread.make ~id ~name ~subject ~body in
  match
    Resolver.create_leaf kernel.resolver ~subject (thread_path id) ~meta
      (Thread_ref thread)
  with
  | Error denial -> Error (error_of_denial denial)
  | Ok _ ->
    Metrics.incr m_spawns;
    Sched.add kernel.sched thread;
    Ok thread

let kill kernel ~subject ~victim =
  let path = thread_path victim in
  match Resolver.resolve kernel.resolver ~subject ~mode:Access_mode.Delete path with
  | Error denial -> Error (error_of_denial denial)
  | Ok node -> (
    match Namespace.payload node with
    | Some (Thread_ref thread) ->
      Thread.kill thread;
      (match Namespace.remove (namespace kernel) path with
      | Ok () -> ()
      | Error _ -> ());
      Ok ()
    | Some _ | None -> Error (Service.Unresolved (Path.to_string path ^ ": not a thread")))

let run ?max_quanta kernel = Sched.run ?max_quanta kernel.sched

(* {1 Loaded-extension registry} *)

let loaded_by kernel author =
  Option.value ~default:0 (Hashtbl.find_opt kernel.loaded_by author)

let count_author kernel author delta =
  match loaded_by kernel author + delta with
  | 0 -> Hashtbl.remove kernel.loaded_by author
  | n -> Hashtbl.replace kernel.loaded_by author n

(* Every change to [loaded] goes through here, so [loaded_by] always
   counts its entries by author.  Capability revocation: the handles
   the link minted die with the entry — a recycled slot can never
   satisfy the old handle (stamp mismatch), so use-after-unload is a
   deterministic denial. *)
let unnote_loaded kernel name =
  match Hashtbl.find_opt kernel.loaded name with
  | None -> ()
  | Some loaded ->
    Hashtbl.remove kernel.loaded name;
    List.iter (fun h -> ignore (close_handle kernel h)) (loaded.imports @ loaded.chain);
    count_author kernel loaded.extension.Extension.author (-1)

let note_loaded kernel extension ~installed ~handler_sets ~imports ~chain =
  unnote_loaded kernel extension.Extension.ext_name;
  Hashtbl.replace kernel.loaded extension.Extension.ext_name
    { extension; installed; handler_sets; imports; chain };
  count_author kernel extension.Extension.author 1

let forget_loaded kernel name =
  unnote_loaded kernel name;
  Hashtbl.remove kernel.certificates name

let find_loaded kernel name =
  Option.map
    (fun loaded -> loaded.extension, loaded.installed, loaded.handler_sets)
    (Hashtbl.find_opt kernel.loaded name)

(* {1 Certificate lifecycle} *)

(* Record [certificate] on the named extension's import handles whose
   path it proves [Always_allow] over the very values the grant keeps,
   and strip every other proof from them; [None] strips them all.  An
   extension that is not loaded holds no import handle.  The grants
   keep their own monitor justification. *)
let record_proofs kernel name certificate =
  let proves g (certificate : Certificate.t) =
    List.exists
      (fun (proof : Certificate.import_proof) ->
        Path.equal proof.import g.g_path && Certificate.proof_holds proof (Array.to_list g.g_metas))
      certificate.proofs
  in
  let record h g =
    let g_proof = Option.bind certificate (fun c -> if proves g c then Some c else None) in
    if Option.is_some g_proof || Option.is_some g.g_proof then
      ignore (Handle.update kernel.handles h { g with g_proof })
  in
  match Hashtbl.find_opt kernel.loaded name with
  | None -> ()
  | Some loaded ->
    List.iter (fun h -> Option.iter (record h) (Handle.deref kernel.handles h)) loaded.imports

(* A certificate that replaces a held one counts that one as revoked:
   it leaves the table, so [cert.issued] stays the sum of the expired,
   the revoked and the held. *)
let note_certificate kernel certificate =
  Metrics.incr m_cert_issued;
  if certificate.Certificate.delegation <> None then Metrics.incr m_cert_delegations;
  let name = certificate.Certificate.extension in
  if Hashtbl.mem kernel.certificates name then Metrics.incr m_cert_revoked;
  Hashtbl.replace kernel.certificates name certificate;
  record_proofs kernel name (Some certificate)

(* Every handle was minted by a monitor decision and keeps it: retiring
   a certificate strips its proofs and closes nothing. *)
let drop_certificate kernel name =
  Hashtbl.remove kernel.certificates name;
  record_proofs kernel name None

let revoke_certificate kernel name =
  if Hashtbl.mem kernel.certificates name then Metrics.incr m_cert_revoked;
  drop_certificate kernel name

let certificate_of kernel name = Hashtbl.find_opt kernel.certificates name

let certificates kernel =
  Hashtbl.fold (fun _ certificate acc -> certificate :: acc) kernel.certificates []
  |> List.sort (fun a b ->
         String.compare a.Certificate.extension
           b.Certificate.extension)

let cert_epoch kernel = Atomic.get kernel.cert_epoch

(* Drop every certificate [matches] selects, counting each under
   [counter]; collect-then-drop so the table is never mutated while
   folded over. *)
let drop_where kernel counter matches =
  let hit =
    Hashtbl.fold
      (fun name certificate acc -> if matches certificate then name :: acc else acc)
      kernel.certificates []
  in
  List.iter
    (fun name ->
      Metrics.incr counter;
      drop_certificate kernel name)
    hit;
  List.length hit

(* Eager expiry.  The lazy half needs no sweep at all — validation
   carries the current epoch and refuses expired certificates on its
   own; the sweep reclaims table entries and strips proofs promptly
   rather than on first use. *)
let advance_cert_epoch kernel =
  let now = 1 + Atomic.fetch_and_add kernel.cert_epoch 1 in
  ignore
    (drop_where kernel m_cert_expired (fun certificate -> Certificate.expired certificate ~now));
  now

(* CRL-style revocation: invalidate exactly the certificates whose
   covers or proof chains intersect the revoked principal or path
   prefix — no global epoch bump, so every other certificate and
   handle in the kernel is untouched. *)
let revoke_where kernel matches = drop_where kernel m_cert_revoked matches

let revoke_by_principal kernel principal =
  revoke_where kernel (fun certificate ->
      Array.exists
        (fun (cover : Certificate.cover) ->
          Principal.equal_individual cover.principal principal)
        certificate.Certificate.covers)

let revoke_by_prefix kernel prefix =
  revoke_where kernel (fun certificate ->
      List.exists
        (fun (proof : Certificate.import_proof) ->
          Path.is_prefix prefix proof.import)
        certificate.Certificate.proofs)

let delegate_certificate kernel ~parent ?cap ?profile ~extension ~imports () =
  match kernel.registry with
  | None -> Error "kernel booted without a clearance registry"
  | Some registry -> (
    match Hashtbl.find_opt kernel.certificates parent with
    | None -> Error (parent ^ ": no certificate to delegate from")
    | Some parent_certificate -> (
      match
        Certificate.delegate ~monitor:kernel.monitor ~registry
          ~namespace:(namespace kernel) ~parent:parent_certificate ?cap ?profile
          ~now:(Atomic.get kernel.cert_epoch) ~extension ~imports ()
      with
      | Error _ as e -> e
      | Ok certificate ->
        note_certificate kernel certificate;
        Ok certificate))

let loaded_extensions kernel =
  Hashtbl.fold (fun name _ acc -> name :: acc) kernel.loaded [] |> List.sort String.compare

(* {1 Call-graph extraction} *)

let call_graph kernel (extension : Extension.t) =
  let module Cg = Exsec_analysis.Callgraph in
  let ns = namespace kernel in
  let chain_of path =
    match Namespace.chain ns path with
    | None -> []
    | Some nodes -> List.map Namespace.meta nodes
  in
  (* The extension a site [/ext/<name>/<at>] may be provided by ([<at>]
     is one segment, as the linker installs it): the one being linked
     or a loaded one. *)
  let provider path =
    match Option.map Path.segments (Path.parent path) with
    | Some ("ext" :: (_ :: _ as name)) ->
      let name = String.concat "/" name in
      if String.equal name extension.Extension.ext_name then Some extension
      else Option.map (fun loaded -> loaded.extension) (Hashtbl.find_opt kernel.loaded name)
    | Some _ | None -> None
  in
  let edges = ref [] in
  let add edge = edges := edge :: !edges in
  let expanded = Hashtbl.create 8 in
  let pending = Queue.create () in
  let reach (ext : Extension.t) =
    if not (Hashtbl.mem expanded ext.Extension.ext_name) then begin
      Hashtbl.add expanded ext.Extension.ext_name ();
      Queue.push ext pending
    end
  in
  reach extension;
  while not (Queue.is_empty pending) do
    let ext = Queue.pop pending in
    let name = ext.Extension.ext_name in
    let code = Cg.code_node name in
    (* Control enters the extension's code through each provided
       procedure, with the ceiling unchanged: a provide runs under
       the caller's subject (run_proc), the provider's static class
       bounds only calls the provider itself initiates. *)
    List.iter
      (fun (provided : Extension.provided) ->
        let path = Path.of_string ("/ext/" ^ name ^ "/" ^ provided.Extension.at) in
        add (Cg.transfer_edge ~src:(Cg.site_node path) ~dst:code))
      ext.Extension.provides;
    (* Declared and domain imports are the monitor-checked call
       sites the extension's code reaches.  Domains expand over the
       live tree, unchecked: this is analysis, not access. *)
    let domain_imports =
      List.concat_map
        (fun domain ->
          List.concat_map
            (fun mount ->
              match Namespace.find ns mount with
              | Ok node when Namespace.is_dir node ->
                List.filter_map
                  (fun (_, child) ->
                    if Namespace.is_dir child then None
                    else Some (Namespace.path child))
                  (Namespace.children node)
              | Ok _ | Error _ -> [])
            (Domain.interfaces domain))
        ext.Extension.import_domains
    in
    List.iter
      (fun import ->
        add (Cg.call_edge ~src:code ~target:import ~chain:(chain_of import));
        Option.iter reach (provider import))
      (List.sort_uniq Path.compare (ext.Extension.imports @ domain_imports))
  done;
  { Cg.edges = List.rev !edges; entries = [] }
