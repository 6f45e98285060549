open Exsec_core
open Exsec_extsys
open Exsec_services

(* [Exsec_extsys.Domain] (protection domains, after the paper) shadows
   stdlib [Domain] (OCaml parallelism); alias the latter back. *)
module Sys_domain = Stdlib.Domain
module Metrics = Exsec_obs.Metrics
module Chan = Transport.Chan

(* Front-end instruments.  Conservation, relied on by the serve test
   suite and the load generator: serve.requests = serve.responses
   exactly — every decoded Op produces one response attempt on the
   same connection, Busy and errors included.  A client that vanishes
   mid-response still counts: the attempt is the unit, so the pair
   stays equal even when connections abort. *)
let m_connections = Metrics.counter "serve.connections"
let m_auth_failures = Metrics.counter "serve.auth_failures"
let m_requests = Metrics.counter "serve.requests"
let m_responses = Metrics.counter "serve.responses"
let m_busy = Metrics.counter "serve.busy"
let m_request_errors = Metrics.counter "serve.request_errors"
let m_protocol_errors = Metrics.counter "serve.protocol_errors"
let m_request_ns = Metrics.histogram "serve.request_ns"

let endpoint_labels =
  [| "resolve"; "call"; "open_handle"; "call_handle"; "close_handle"; "read"; "write" |]

let endpoint_index : Wire.op -> int = function
  | Wire.Resolve _ -> 0
  | Wire.Call _ -> 1
  | Wire.Open_handle _ -> 2
  | Wire.Call_handle _ -> 3
  | Wire.Close_handle _ -> 4
  | Wire.Read _ -> 5
  | Wire.Write _ -> 6

let endpoint_counters =
  Array.map (fun label -> Metrics.counter ("serve." ^ label ^ ".requests")) endpoint_labels

let endpoint_histograms =
  Array.map (fun label -> Metrics.histogram ("serve." ^ label ^ "_ns")) endpoint_labels

type t = {
  kernel : Kernel.t;
  transport : Transport.t;
  n_workers : int;
  name : string;
  pending : Transport.conn Chan.chan;
  lock : Mutex.t;
  mutable domains : unit Sys_domain.t list;
  mutable started : bool;
  mutable stopped : bool;
  conn_seq : int Atomic.t;
  (* Accepted connections being served right now, so [stop] can close
     them out from under workers blocked in [recv]; guarded by
     [live_lock], which also orders registration against [stopped]. *)
  live : (int, Transport.conn) Hashtbl.t;
  live_lock : Mutex.t;
  live_seq : int Atomic.t;
}

let workers t = t.n_workers

let create ?workers ?(name = "serve") kernel transport =
  let n_workers =
    match workers with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Server.create: workers must be >= 1"
    | None -> min 8 (max 1 (Sys_domain.recommended_domain_count () - 1))
  in
  {
    kernel;
    transport;
    n_workers;
    name;
    pending = Chan.create ();
    lock = Mutex.create ();
    domains = [];
    started = false;
    stopped = false;
    conn_seq = Atomic.make 0;
    live = Hashtbl.create 16;
    live_lock = Mutex.create ();
    live_seq = Atomic.make 0;
  }

(* {1 Authentication}

   The Hello's principal must be registered in the kernel's principal
   database; with a Clearance registry booted into the kernel the
   session goes through it (so clearances, secrets and the trusted bit
   are the registry's say), otherwise the subject is minted directly
   at the requested class — which then defaults to the lattice bottom:
   an unauthenticated deployment grants no authority by omission. *)

let requested_class kernel (creds : Wire.credentials) =
  match creds.level, creds.categories with
  | None, [] -> Ok None
  | None, _ :: _ -> Error "session categories require a session level"
  | Some name, cats -> (
    match Level.of_name (Kernel.hierarchy kernel) name with
    | None -> Error ("unknown level " ^ name)
    | Some level -> (
      match Category.of_names (Kernel.universe kernel) cats with
      | categories -> Ok (Some (Security_class.make level categories))
      | exception Invalid_argument message -> Error message))

let authenticate kernel (creds : Wire.credentials) =
  match Principal.individual creds.principal with
  | exception Invalid_argument _ -> Error "empty principal name"
  | principal ->
    if not (Principal.Db.mem_individual (Kernel.db kernel) principal) then
      Error ("unknown principal " ^ creds.principal)
    else (
      match requested_class kernel creds with
      | Error why -> Error why
      | Ok at -> (
        match Kernel.registry kernel with
        | Some registry -> (
          let session =
            match creds.secret with
            | Some secret -> Clearance.authenticate registry ~secret ?at principal
            | None -> Clearance.login registry ?at principal
          in
          match session with
          | Ok subject -> Ok subject
          | Error e -> Error (Format.asprintf "%a" Clearance.pp_error e))
        | None ->
          let klass =
            match at with
            | Some klass -> klass
            | None ->
              Security_class.bottom (Kernel.hierarchy kernel) (Kernel.universe kernel)
          in
          Ok (Subject.make principal klass)))

(* {1 Per-connection sessions} *)

type session = {
  subject : Subject.t;
  caller : string;
  handles : (int, Handle.h) Hashtbl.t;  (* wire id -> kernel handle *)
  mutable next_handle : int;
}

let body_of_result = function
  | Ok value -> Wire.Value value
  | Error (Service.Quota_exceeded why) ->
    (* Backpressure, not failure: the lock-free quota refused the
       charge, the client is told to back off, the socket stays up. *)
    Metrics.incr m_busy;
    Wire.Busy why
  | Error e ->
    Metrics.incr m_request_errors;
    Wire.Error (Wire.error_of_service e)

let service_error e = body_of_result (Error e)

let bad_argument why =
  Metrics.incr m_request_errors;
  Wire.Error (Wire.Bad_argument why)

let with_path path_string k =
  match Path.of_string path_string with
  | path -> k path
  | exception Invalid_argument message -> bad_argument message

let payload_kind = function
  | Some (Kernel.Proc _) -> "proc"
  | Some Kernel.Event -> "event"
  | Some (Kernel.Thread_ref _) -> "thread"
  | Some (Memfs.File _) -> "file"
  | Some (Syslog.Log_data _) -> "log"
  | Some _ -> "entry"
  | None -> "dir"

let exec server session (op : Wire.op) : Wire.body =
  let kernel = server.kernel in
  let subject = session.subject in
  match op with
  | Wire.Resolve { path; mode } -> (
    match Access_mode.of_string mode with
    | None -> bad_argument ("unknown mode " ^ mode)
    | Some mode ->
      with_path path @@ fun path -> (
        match Resolver.resolve (Kernel.resolver kernel) ~subject ~mode path with
        | Ok node -> Wire.Value (Value.str (payload_kind (Namespace.payload node)))
        | Error denial -> service_error (Service.error_of_denial denial)))
  | Wire.Call { path; args } ->
    with_path path @@ fun path ->
    body_of_result (Kernel.call kernel ~subject ~caller:session.caller path args)
  | Wire.Open_handle { path } ->
    with_path path @@ fun path -> (
      match Kernel.open_handle kernel ~subject ~caller:session.caller path with
      | Error e -> body_of_result (Error e)
      | Ok handle ->
        let id = session.next_handle in
        session.next_handle <- id + 1;
        Hashtbl.replace session.handles id handle;
        Wire.Value (Value.int id))
  | Wire.Call_handle { handle; args } -> (
    match Hashtbl.find_opt session.handles handle with
    | None -> bad_argument (Printf.sprintf "handle %d: not open on this connection" handle)
    | Some h -> body_of_result (Kernel.call_handle kernel h args))
  | Wire.Close_handle { handle } -> (
    match Hashtbl.find_opt session.handles handle with
    | None -> Wire.Value (Value.bool false)
    | Some h ->
      Hashtbl.remove session.handles handle;
      Wire.Value (Value.bool (Kernel.close_handle kernel h)))
  | Wire.Read { path } ->
    with_path path @@ fun path -> (
      match Resolver.resolve (Kernel.resolver kernel) ~subject ~mode:Access_mode.Read path with
      | Error denial -> service_error (Service.error_of_denial denial)
      | Ok node -> (
        match Namespace.payload node with
        | Some (Memfs.File file) -> Wire.Value (Value.str (Memfs.file_contents file))
        | Some (Syslog.Log_data state) ->
          Wire.Value (Value.list (List.map Value.str (Syslog.state_entries state)))
        | Some _ | None ->
          service_error (Service.Unresolved (Path.to_string path ^ ": not a readable object"))))
  | Wire.Write { path; data; append } ->
    with_path path @@ fun path ->
    let mode = if append then Access_mode.Write_append else Access_mode.Write in
    (match Resolver.resolve (Kernel.resolver kernel) ~subject ~mode path with
    | Error denial -> service_error (Service.error_of_denial denial)
    | Ok node -> (
      match Namespace.payload node with
      | Some (Memfs.File file) ->
        if append then Memfs.file_append file data else Memfs.file_replace file data;
        Wire.Value Value.unit
      | Some (Syslog.Log_data state) ->
        if append then Syslog.state_append state data
        else Syslog.state_replace state [ data ];
        Wire.Value Value.unit
      | Some _ | None ->
        service_error (Service.Unresolved (Path.to_string path ^ ": not a writable object"))))

(* {1 The per-connection conversation} *)

(* [serve.requests]/[serve.responses] count only authenticated [Op]
   traffic — one response counted per counted request, so the pair is
   an exact conservation invariant (hello and protocol-error replies
   live under their own counters). *)
let send_response conn response =
  match conn.Transport.send (Wire.encode_response response) with
  | () -> true
  | exception Transport.Closed -> false

let close_session kernel session =
  (* Capability revocation on disconnect: a handle does not outlive
     the connection it was minted for. *)
  Hashtbl.iter (fun _ h -> ignore (Kernel.close_handle kernel h)) session.handles;
  Hashtbl.reset session.handles

let await_hello server conn =
  match conn.Transport.recv () with
  | None -> None
  | Some frame -> (
    match Wire.decode_request frame with
    | Error reason ->
      Metrics.incr m_protocol_errors;
      ignore (send_response conn { seq = 0; body = Wire.Error (Wire.Protocol reason) });
      None
    | Ok (Wire.Op { seq; _ }) ->
      Metrics.incr m_protocol_errors;
      ignore
        (send_response conn
           { seq; body = Wire.Error (Wire.Protocol "hello required before any op") });
      None
    | Ok (Wire.Hello { seq; creds }) -> (
      match authenticate server.kernel creds with
      | Error why ->
        Metrics.incr m_auth_failures;
        ignore (send_response conn { seq; body = Wire.Error (Wire.Auth_failed why) });
        None
      | Ok subject ->
        let n = Atomic.fetch_and_add server.conn_seq 1 in
        let session =
          {
            subject;
            caller = Printf.sprintf "%s:%s#%d" server.name creds.principal n;
            handles = Hashtbl.create 8;
            next_handle = 0;
          }
        in
        let klass =
          Format.asprintf "%a" Security_class.pp (Subject.effective_class subject)
        in
        if
          send_response conn
            { seq; body = Wire.Hello_ok { principal = creds.principal; klass } }
        then Some session
        else None))

let serve_conn server conn =
  Metrics.incr m_connections;
  (match await_hello server conn with
  | None -> ()
  | Some session ->
    let rec loop () =
      match conn.Transport.recv () with
      | None -> ()
      | Some frame -> (
        let t0 = Metrics.start_timing m_request_ns in
        match Wire.decode_request frame with
        | Error reason ->
          (* A malformed frame leaves the stream unsynchronized: answer
             once, then hang up. *)
          Metrics.incr m_protocol_errors;
          ignore
            (send_response conn { seq = 0; body = Wire.Error (Wire.Protocol reason) })
        | Ok (Wire.Hello { seq; _ }) ->
          Metrics.incr m_protocol_errors;
          if
            send_response conn
              { seq; body = Wire.Error (Wire.Protocol "already authenticated") }
          then loop ()
        | Ok (Wire.Op { seq; op }) ->
          Metrics.incr m_requests;
          let endpoint = endpoint_index op in
          Metrics.incr endpoint_counters.(endpoint);
          let te = Metrics.start_timing endpoint_histograms.(endpoint) in
          let body = exec server session op in
          Metrics.stop_timing endpoint_histograms.(endpoint) te;
          Metrics.stop_timing m_request_ns t0;
          let delivered = send_response conn { seq; body } in
          Metrics.incr m_responses;
          if delivered then loop ())
    in
    loop ();
    close_session server.kernel session);
  conn.Transport.close ()

(* {1 The accept / worker loop} *)

let accept_loop server () =
  let rec loop () =
    match server.transport.Transport.accept () with
    | Some conn ->
      if not (Chan.push server.pending conn) then conn.Transport.close ();
      loop ()
    | None -> Chan.close server.pending
  in
  loop ()

(* Registration is refused once [stop] has run: either the connection
   lands in [live] before [stop] takes [live_lock] (and [stop] closes
   it), or registration observes [stopped] and the worker hangs up
   immediately — no window where a late connection blocks [recv]
   forever. *)
let register_conn server conn =
  Mutex.protect server.live_lock (fun () ->
      if server.stopped then None
      else begin
        let id = Atomic.fetch_and_add server.live_seq 1 in
        Hashtbl.replace server.live id conn;
        Some id
      end)

let unregister_conn server id =
  Mutex.protect server.live_lock (fun () -> Hashtbl.remove server.live id)

let worker_loop server () =
  let rec loop () =
    match Chan.pop server.pending with
    | None -> ()
    | Some conn ->
      (match register_conn server conn with
      | None -> conn.Transport.close ()
      | Some id ->
        (try serve_conn server conn with
        | _ -> conn.Transport.close ());
        unregister_conn server id);
      loop ()
  in
  loop ()

let start server =
  Mutex.protect server.lock (fun () ->
      if not server.started then begin
        server.started <- true;
        let accepter = Sys_domain.spawn (accept_loop server) in
        let pool = List.init server.n_workers (fun _ -> Sys_domain.spawn (worker_loop server)) in
        server.domains <- accepter :: pool
      end)

let stop server =
  let domains =
    Mutex.protect server.lock (fun () ->
        if server.stopped then []
        else begin
          server.stopped <- true;
          Transport.shutdown server.transport;
          let domains = server.domains in
          server.domains <- [];
          domains
        end)
  in
  (* Workers blocked in [recv] on active connections never see the
     listener go down; close their connections so every worker
     observes end-of-stream and the joins below terminate. *)
  Mutex.protect server.live_lock (fun () ->
      Hashtbl.iter
        (fun _ conn -> try conn.Transport.close () with _ -> ())
        server.live;
      Hashtbl.reset server.live);
  List.iter Sys_domain.join domains
