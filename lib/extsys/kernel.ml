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
let m_handle_cert_mints = Metrics.counter "handle.cert_mints"
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
  | Event
  | Thread_ref of Thread.t

(* A grant is everything [call] would have computed for one
   (subject, caller, path) triple, captured at mint time: the resolved
   target (with its invocation context prebuilt, so the hot path
   allocates nothing), plus the exact generation coordinates the
   admitting decision consulted — the monitor stamp (policy epoch +
   principal-database generation) and the per-node [Meta] generation
   of every node on the resolution chain.  [call_handle] may dispatch
   without re-entering the reference monitor exactly while all of
   those still hold; any drift fails closed into the checked path. *)
type grant_target =
  | Grant_proc of Service.proc * Service.ctx
  | Grant_event

type grant = {
  g_path : Path.t;
  g_subject : Subject.t;
  g_caller : string;
  g_target : grant_target;
  g_stamp : Reference_monitor.stamp;
  g_metas : Meta.t array;  (* resolution chain, root first, target last *)
  g_gens : int array;  (* generation of each, read before the decision *)
  g_cert : bool;
      (* minted on the strength of the caller's certificate rather than
         a monitor decision — revoking or expiring that certificate
         must close this handle (its authority dies with the proof) *)
  g_proof : (Certificate.t * Certificate.import_proof) option;
      (* the caller's certificate and its Always_allow proof of this
         path, for [call_proved]; dropping or replacing the certificate
         or a stale re-mint strips it *)
}

type t = {
  monitor : Reference_monitor.t;
  resolver : entry Resolver.t;
  dispatcher : Dispatcher.t;
  sched : Sched.t;
  hierarchy : Level.hierarchy;
  universe : Category.universe;
  admin : Principal.individual;
  registry : Clearance.t option;
  mutable next_thread_id : int;
  loaded : (string, Extension.t * Path.t list) Hashtbl.t;
  certificates : (string, Certificate.t) Hashtbl.t;
  quota : Quota.t;
  handles : grant Handle.t;
  cert_epoch : int Atomic.t;
      (* the kernel's certificate clock: validity horizons are measured
         in ticks of this counter ([advance_cert_epoch]); independent of
         the policy epoch, so expiring a certificate never invalidates
         unrelated handles or certificates *)
}

let monitor kernel = kernel.monitor
let cache_stats _kernel = None
let quota kernel = kernel.quota
let resolver kernel = kernel.resolver
let namespace kernel = Resolver.namespace kernel.resolver
let dispatcher kernel = kernel.dispatcher
let sched kernel = kernel.sched
let db kernel = Reference_monitor.db kernel.monitor

let batch_principals kernel f = Principal.Db.batch (Reference_monitor.db kernel.monitor) f
let hierarchy kernel = kernel.hierarchy
let universe kernel = kernel.universe
let registry kernel = kernel.registry

let subject_for _kernel principal clearance = Subject.make principal clearance

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

let boot ?policy ?audit_capacity ?audit_shards ?registry ~db ~admin ~hierarchy ~universe
    () =
  let monitor = Reference_monitor.create ?policy ?audit_capacity ?audit_shards db in
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
      dispatcher = Dispatcher.create ();
      sched = Sched.create ();
      hierarchy;
      universe;
      admin;
      registry;
      next_thread_id = 0;
      loaded = Hashtbl.create 8;
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

let install_event kernel ~subject path ~meta = install_entry kernel ~subject path ~meta Event

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

(* [Some node] when the caller's certificate still admits this
   (subject, path) (see Exsec_analysis.Certificate), naming the node it
   validated.  Only [open_handle] acts on it: certificates mint
   handles, [call] never consults them. *)
let certified_node kernel ~caller ~subject path =
  match Hashtbl.find_opt kernel.certificates caller with
  | None -> None
  | Some certificate ->
    Certificate.admitted certificate ~monitor:kernel.monitor
      ~namespace:(Resolver.namespace kernel.resolver) ~subject
      ~now:(Atomic.get kernel.cert_epoch) path

let certificate_admits kernel ~caller ~subject path =
  Option.is_some (certified_node kernel ~caller ~subject path)

let quota_exceeded denial =
  Metrics.incr m_quota_denied;
  Error (Service.Quota_exceeded (Format.asprintf "%a" Quota.pp_denial denial))

let count_error result =
  (match result with
  | Ok _ -> ()
  | Error _ -> Metrics.incr m_call_errors);
  result

let guarded impl ctx args =
  try impl ctx args with
  | Value.Type_error message -> Error (Service.Bad_argument message)
  | Failure message -> Error (Service.Ext_failure message)

let run_proc proc ctx args =
  match Service.check_arity proc args with
  | Error e -> Error e
  | Ok () -> guarded proc.Service.impl ctx args

let rec make_ctx kernel ~subject ~caller =
  {
    Service.subject;
    caller;
    call = (fun path args -> call kernel ~subject ~caller path args);
    raise_event = (fun path args -> call kernel ~subject ~caller path args);
  }

(* A handler runs with the caller's authority capped by the handler's
   static class (paper, section 2.2). *)
and run_handler kernel ~subject (handler : Dispatcher.handler) args =
  let capped = Subject.with_ceiling subject handler.Dispatcher.klass in
  guarded handler.Dispatcher.impl
    (make_ctx kernel ~subject:capped ~caller:handler.Dispatcher.owner)
    args

and dispatch_event kernel ~subject path args =
  let caller_class = Subject.effective_class subject in
  match Dispatcher.select kernel.dispatcher ~event:path ~caller_class ~args with
  | None -> Error (Service.No_handler (Path.to_string path))
  | Some handler -> run_handler kernel ~subject handler args

and call kernel ~subject ~caller path args =
  Metrics.incr m_calls;
  let t0 = Metrics.start_timing m_call_ns in
  let span = Trace.start "kernel.call" in
  if Trace.active span then begin
    Trace.annotate span "path" (Path.to_string path);
    Trace.annotate span "subject"
      (Principal.individual_name (Subject.principal subject));
    Trace.annotate span "caller" caller
  end;
  let result =
    match Quota.charge_call kernel.quota (Subject.principal subject) with
    | Error denial ->
      if Trace.active span then Trace.annotate span "quota" "denied";
      quota_exceeded denial
    | Ok () -> (
      match
        Resolver.resolve ~span kernel.resolver ~subject ~mode:Access_mode.Execute path
      with
      | Error denial -> Error (error_of_denial denial)
      | Ok node -> (
        match Namespace.payload node with
        | Some (Proc proc) -> run_proc proc (make_ctx kernel ~subject ~caller) args
        | Some Event -> dispatch_event kernel ~subject path args
        | Some _ | None -> Error (Service.Unresolved (Path.to_string path ^ ": not callable"))))
  in
  ignore (count_error result);
  if Trace.active span then
    Trace.annotate span "result"
      (match result with
      | Ok _ -> "ok"
      | Error _ -> "error");
  Trace.finish span;
  Metrics.stop_timing m_call_ns t0;
  result

let broadcast kernel ~subject ~caller:_ path args =
  Metrics.incr m_broadcasts;
  match Quota.charge_call kernel.quota (Subject.principal subject) with
  | Error denial -> quota_exceeded denial
  | Ok () -> (
    match Resolver.resolve kernel.resolver ~subject ~mode:Access_mode.Execute path with
    | Error denial -> Error (error_of_denial denial)
    | Ok node -> (
      match Namespace.payload node with
      | Some Event ->
        let caller_class = Subject.effective_class subject in
        let handlers = Dispatcher.select_all kernel.dispatcher ~event:path ~caller_class ~args in
        Ok
          (List.map
             (fun handler ->
               handler.Dispatcher.owner, run_handler kernel ~subject handler args)
             handlers)
      | Some _ | None -> Error (Service.Unresolved (Path.to_string path ^ ": not an event"))))

(* {1 Capability handles}

   [open_handle] decides once and files the grant; [call_handle] is the
   hot path — slot probe, stamp compare, generation sweep, dispatch, no
   allocation — and any drift fails closed into a checked re-resolution
   that re-mints the slot in place (see kernel.mli). *)

(* Top-level (not a local closure) so the hot path stays allocation
   free: a local [let rec] would capture the arrays in a heap-allocated
   closure on every call. *)
let rec chain_fresh metas gens n i =
  i >= n
  || Meta.generation (Array.unsafe_get metas i) = Array.unsafe_get gens i
     && chain_fresh metas gens n (i + 1)

let grant_fresh kernel g =
  Reference_monitor.stamp_valid kernel.monitor g.g_stamp
  && chain_fresh g.g_metas g.g_gens (Array.length g.g_metas) 0

(* Preallocated so the use-after-close refusal is itself allocation
   free.  A closed handle denotes no object at all, which is exactly
   [Not_an_object]; the oracle never compares this against a path call
   because a path has no notion of closure. *)
let closed_handle_error :
    (Value.t, Service.error) result =
  Error
    (Service.Denied
       { at = "<handle>"; mode = Access_mode.Execute; denial = Decision.Not_an_object })

(* The pre-read half of a mint: the monitor stamp and the generation
   of every node on the unchecked chain, captured BEFORE the decision
   runs.  A mutation racing with the decision then lands a higher
   generation than the one the grant was filed under, so the grant is
   born stale rather than wrongly durable (same discipline as the
   compiled-ACL memo). *)
let chain_snapshot kernel path =
  let stamp = Reference_monitor.stamp kernel.monitor in
  match Namespace.chain (namespace kernel) path with
  | None -> stamp, [||], [||]
  | Some nodes ->
    let metas = Array.of_list (List.map Namespace.meta nodes) in
    stamp, metas, Array.map Meta.generation metas

let grant_target_of_payload kernel ~subject ~caller ~reuse_ctx = function
  | Some (Proc proc) ->
    let ctx =
      match reuse_ctx with
      | Some ctx -> ctx
      | None -> make_ctx kernel ~subject ~caller
    in
    Some (Grant_proc (proc, ctx))
  | Some Event -> Some Grant_event
  | Some _ | None -> None

let rec open_handle kernel ~subject ~caller path =
  Metrics.incr m_handle_opens;
  let stamp, metas, gens = chain_snapshot kernel path in
  let target_id =
    let n = Array.length metas in
    if n = 0 then -1 else metas.(n - 1).Meta.id
  in
  let certified =
    if Array.length metas = 0 then None else certified_node kernel ~caller ~subject path
  in
  let admitted =
    match certified with
    | Some node ->
      (* The certificate's own validation just re-proved every
         generation it consulted; our pre-reads happened before that
         check and generations are monotone, so the snapshot is
         consistent with the admitting proof. *)
      Metrics.incr m_handle_cert_mints;
      Ok node
    | None -> Resolver.resolve kernel.resolver ~subject ~mode:Access_mode.Execute path
  in
  match admitted with
  | Error denial -> Error (Service.error_of_denial denial)
  | Ok node ->
    if (Namespace.meta node).Meta.id <> target_id then
      (* The target changed identity between the snapshot and the
         decision (delete + recreate race): the snapshot does not
         describe the node the decision admitted.  Start over. *)
      open_handle kernel ~subject ~caller path
    else (
      match
        grant_target_of_payload kernel ~subject ~caller ~reuse_ctx:None
          (Namespace.payload node)
      with
      | None -> Error (Service.Unresolved (Path.to_string path ^ ": not callable"))
      | Some g_target ->
        Ok
          (Handle.mint kernel.handles
             { g_path = path; g_subject = subject; g_caller = caller; g_target;
               g_stamp = stamp; g_metas = metas; g_gens = gens;
               g_cert = Option.is_some certified; g_proof = None }))

(* Run a grant's target under [subject].  Any subject but the grant's
   own gets a context of its own, so nested calls run under it. *)
let run_target kernel g ~subject target args =
  match target with
  | Grant_proc (proc, ctx) ->
    let ctx = if subject == g.g_subject then ctx else make_ctx kernel ~subject ~caller:g.g_caller in
    run_proc proc ctx args
  | Grant_event -> dispatch_event kernel ~subject g.g_path args

(* Stale slow path: re-run the fully checked resolution (audited)
   under a fresh pre-read snapshot; serve THIS call from the
   checked decision either way, and refresh the slot in place when the
   snapshot describes the node the decision admitted. *)
let call_handle_stale kernel h g args =
  let stamp, metas, gens = chain_snapshot kernel g.g_path in
  match
    Resolver.resolve kernel.resolver ~subject:g.g_subject ~mode:Access_mode.Execute
      g.g_path
  with
  | Error denial -> Error (Service.error_of_denial denial)
  | Ok node -> (
    let reuse_ctx =
      match g.g_target with Grant_proc (_, ctx) -> Some ctx | Grant_event -> None
    in
    match
      grant_target_of_payload kernel ~subject:g.g_subject ~caller:g.g_caller
        ~reuse_ctx (Namespace.payload node)
    with
    | None -> Error (Service.Unresolved (Path.to_string g.g_path ^ ": not callable"))
    | Some g_target ->
      let n = Array.length metas in
      if n > 0 && metas.(n - 1).Meta.id = (Namespace.meta node).Meta.id then
        if
          Handle.update kernel.handles h
            (* A re-mint is justified by the fresh monitor decision,
               not the certificate, so the slot sheds its cert
               lineage and any proof recorded on it: a later
               revocation of that certificate need not (and must not)
               kill an independently checked grant, and the proof may
               name a node the slot no longer dispatches. *)
            { g with g_target; g_stamp = stamp; g_metas = metas; g_gens = gens;
              g_cert = false; g_proof = None }
        then Metrics.incr m_handle_reminted;
      run_target kernel g ~subject:g.g_subject g_target args)

let call_handle kernel h args =
  Metrics.incr m_handle_calls;
  let t0 = Metrics.start_timing m_handle_call_ns in
  let result =
    match Handle.deref kernel.handles h with
    | None ->
      Metrics.incr m_handle_use_closed;
      closed_handle_error
    | Some g -> (
      let fresh = grant_fresh kernel g in
      Metrics.incr (if fresh then m_handle_hits else m_handle_stale);
      match Quota.charge_call kernel.quota (Subject.principal g.g_subject) with
      | Error denial -> quota_exceeded denial
      | Ok () ->
        if fresh then run_target kernel g ~subject:g.g_subject g.g_target args
        else call_handle_stale kernel h g args)
  in
  Metrics.stop_timing m_handle_call_ns t0;
  count_error result

(* The proved probe.  It ignores the grant's global stamp, so edits
   outside the certificate's scope do not end it.  A removal touches
   the removed node, so the chain sweep also catches a target removed
   and republished. *)
let proof_admits kernel g subject =
  match g.g_proof with
  | None -> false
  | Some (certificate, proof) ->
    Certificate.valid certificate ~monitor:kernel.monitor ~now:(Atomic.get kernel.cert_epoch)
    && Certificate.proof_holds proof
    && proof.Certificate.target_id = g.g_metas.(Array.length g.g_metas - 1).Meta.id
    && Certificate.covered certificate subject

let call_proved kernel h ~subject ~caller path args =
  match Handle.deref kernel.handles h with
  | Some g when proof_admits kernel g subject ->
    Metrics.incr m_handle_calls;
    Metrics.incr m_handle_hits;
    count_error
      (match Quota.charge_call kernel.quota (Subject.principal subject) with
      | Error denial -> quota_exceeded denial
      | Ok () -> run_target kernel g ~subject g.g_target args)
  | Some _ | None -> call kernel ~subject ~caller path args

let close_handle kernel h =
  match Handle.close kernel.handles h with Some _ -> true | None -> false

let close_handles_for kernel caller =
  Handle.close_where kernel.handles (fun g -> String.equal g.g_caller caller)

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
  let thread = Thread.make ~id ~name ~subject ~meta ~body in
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

let note_loaded kernel extension ~installed =
  Hashtbl.replace kernel.loaded extension.Extension.ext_name (extension, installed)

let forget_loaded kernel name =
  Hashtbl.remove kernel.loaded name;
  Hashtbl.remove kernel.certificates name;
  (* Capability revocation: every handle the extension held dies with
     it — a recycled slot can never satisfy the old handle (stamp
     mismatch), so use-after-unload is a deterministic denial. *)
  ignore (close_handles_for kernel name)

let find_loaded kernel name = Hashtbl.find_opt kernel.loaded name

(* {1 Certificate lifecycle} *)

(* Record [certificate] on the named caller's live grants for the
   paths it proves [Always_allow] (the extension's import handles) and
   strip every other proof from them; [None] strips them all.  The
   grants keep their own monitor justification. *)
let record_proofs kernel name certificate =
  let proof_of g (certificate : Certificate.t) =
    List.find_map
      (fun (proof : Certificate.import_proof) ->
        if Path.equal proof.import g.g_path && Certificate.proof_holds proof then
          Some (certificate, proof)
        else None)
      certificate.proofs
  in
  Handle.iter kernel.handles (fun h g ->
      if String.equal g.g_caller name then
        let g_proof = Option.bind certificate (proof_of g) in
        if Option.is_some g_proof || Option.is_some g.g_proof then
          ignore (Handle.update kernel.handles h { g with g_proof }))

let note_certificate kernel certificate =
  Metrics.incr m_cert_issued;
  if certificate.Certificate.delegation <> None then Metrics.incr m_cert_delegations;
  let name = certificate.Certificate.extension in
  Hashtbl.replace kernel.certificates name certificate;
  record_proofs kernel name (Some certificate)

(* Retiring a certificate must also retire the handles minted on its
   strength: a grant with [g_cert] set was admitted by the proof, not
   by a monitor decision, and [call_handle] would keep serving it until
   unrelated generation drift.  Handles the extension opened through
   the checked path keep their independent justification and stay,
   minus the proof. *)
let drop_certificate kernel name =
  Hashtbl.remove kernel.certificates name;
  ignore
    (Handle.close_where kernel.handles (fun g ->
         g.g_cert && String.equal g.g_caller name));
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
   own; the sweep exists to reclaim table entries and close cert-minted
   handles promptly rather than on first use. *)
let sweep_expired_certificates kernel =
  let now = Atomic.get kernel.cert_epoch in
  drop_where kernel m_cert_expired (fun certificate -> Certificate.expired certificate ~now)

let advance_cert_epoch kernel =
  let now = 1 + Atomic.fetch_and_add kernel.cert_epoch 1 in
  ignore (sweep_expired_certificates kernel);
  now

(* CRL-style revocation: invalidate exactly the certificates whose
   covers or proof chains intersect the revoked principal or path
   prefix — no global epoch bump, so every other certificate and
   handle in the kernel is untouched. *)
let revoke_where kernel matches = drop_where kernel m_cert_revoked matches

let revoke_by_principal kernel principal =
  revoke_where kernel (fun certificate ->
      List.exists
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

let call_graph ?(extra = []) kernel =
  let module Cg = Exsec_analysis.Callgraph in
  let ns = namespace kernel in
  let chain_of path =
    match Namespace.chain ns path with
    | None -> []
    | Some nodes -> List.map Namespace.meta nodes
  in
  let exts = Hashtbl.fold (fun _ (ext, _) acc -> ext :: acc) kernel.loaded [] @ extra in
  let edges = ref [] in
  let add edge = edges := edge :: !edges in
  List.iter
    (fun (ext : Extension.t) ->
      let name = ext.Extension.ext_name in
      let code = Cg.code_node name in
      (* Control enters the extension's code through each provided
         procedure.  No cap: a provide runs under the caller's subject
         unchanged (run_proc), the provider's static class bounds
         only calls the provider itself initiates. *)
      List.iter
        (fun (provided : Extension.provided) ->
          let path = Path.of_string ("/ext/" ^ name ^ "/" ^ provided.Extension.at) in
          add (Cg.transfer_edge ~src:(Cg.site_node path) ~dst:code ()))
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
          add (Cg.call_edge ~src:code ~target:import ~chain:(chain_of import) ()))
        (List.sort_uniq Path.compare (ext.Extension.imports @ domain_imports)))
    exts;
  (* Dispatcher wiring: raising an event transfers control into each
     registered handler, capped by the handler's static class and
     running under the handler owner's name — certificates minted for
     the original caller stop applying past such an edge. *)
  List.iter
    (fun event ->
      List.iter
        (fun (handler : Dispatcher.handler) ->
          add
            (Cg.transfer_edge ~cap:handler.Dispatcher.klass ~rebinds_caller:true
               ~src:(Cg.site_node event)
               ~dst:(Cg.code_node handler.Dispatcher.owner) ()))
        (Dispatcher.handlers kernel.dispatcher ~event))
    (Dispatcher.events kernel.dispatcher);
  { Cg.edges = List.rev !edges; entries = [] }
