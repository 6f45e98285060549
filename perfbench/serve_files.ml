(* serve_files: a served file system over the wire.

   Why: this is the end-to-end served request — frame, transport
   handoff, session, resolve, decide, memfs or dispatch, response —
   and the only workload through Wire, Transport, Server and
   authentication.  Its (subject, object, mode) working set exceeds
   the 8,192-entry decision cache, and every file resolve walks two
   64-entry directories.

   One client (this domain) and one server worker over the Loopback
   transport, closed loop with one request in flight: a connection is
   served one request at a time.  Every [session_ops] requests the
   client reconnects with a fresh Hello as another principal.  The
   population stays at a few thousand principals: larger ones make the
   two-domain tail unsteady as the heap grows. *)

open Exsec_core
open Exsec_extsys
open Exsec_services
open Exsec_serve
module H = Harness
module Metrics = Exsec_obs.Metrics

let n_users = 2048
let n_teams = 64
let n_depts = 8 (* dept k nests teams 8k .. 8k+7 *)
let n_dirs = 64
let n_files = 64 (* per directory *)
let session_ops = 256
let n_sessions = 256 (* the op stream the client cycles through *)

let dept k = n_teams + k

let group_name g =
  if g < n_teams then Printf.sprintf "team%02d" g else Printf.sprintf "dept%d" (g - n_teams)

let user_name u = Printf.sprintf "u%04d" u
let file_path d f = Printf.sprintf "/fs/d%02d/f%02d" d f

(* {1 The world, as the generator knows it} *)

type proc = {
  p_name : string;
  p_entries : Model.entry list;
  p_level : int;
  p_arity : int;
  p_value : Value.t list -> Value.t;
}

let procs =
  let int_arg = function
    | [ Value.Int n ] -> n
    | _ -> failwith "bad arguments"
  in
  [|
    {
      p_name = "stat";
      p_entries = [ Model.allow Model.All [ Access_mode.List; Access_mode.Execute ] ];
      p_level = 0;
      p_arity = 1;
      p_value = (fun args -> Value.int ((3 * int_arg args) + 1));
    };
    {
      p_name = "sum";
      p_entries =
        Model.allow Model.All [ Access_mode.List ]
        :: List.init 4 (fun k -> Model.allow (Model.Grp (dept k)) [ Access_mode.Execute ]);
      p_level = 0;
      p_arity = 2;
      p_value =
        (function
        | [ Value.Int a; Value.Int b ] -> Value.int (a + b)
        | _ -> failwith "bad arguments");
    };
    {
      p_name = "echo";
      p_entries = [ Model.allow Model.All [ Access_mode.List; Access_mode.Execute ] ];
      p_level = 1;
      p_arity = 1;
      p_value = (fun args -> List.hd args);
    };
    {
      p_name = "audit";
      p_entries = [ Model.allow Model.All [ Access_mode.List; Access_mode.Execute ] ];
      p_level = 2;
      p_arity = 0;
      p_value = (fun _ -> Value.str "audit-ok");
    };
  |]

type spec = {
  user_teams : int list array;
  user_level : int array;
  file_entries : Model.entry list array; (* index d * n_files + f *)
  file_level : int array;
  contents : string array;
  writable_by_team : int list array; (* files whose ACL lets the team write *)
}

let make_spec seed =
  let rng = H.rng seed 1 in
  let user_teams =
    Array.init n_users (fun _ ->
        let t = H.int rng n_teams in
        if H.chance rng 0.4 then
          let t' = H.int rng n_teams in
          if t' = t then [ t ] else [ t; t' ]
        else [ t ])
  in
  let level rng ~mid ~high =
    let r = Random.State.float rng 1.0 in
    if r < high then 2 else if r < high +. mid then 1 else 0
  in
  let user_level = Array.init n_users (fun _ -> level rng ~mid:0.3 ~high:0.2) in
  let n = n_dirs * n_files in
  let writable_by_team = Array.make n_teams [] in
  let file_entries =
    Array.init n (fun i ->
        let writer = H.int rng n_teams in
        writable_by_team.(writer) <- i :: writable_by_team.(writer);
        let reader = dept (H.int rng n_depts) in
        let world =
          if H.chance rng 0.4 then [ Access_mode.List; Access_mode.Read ]
          else [ Access_mode.List ]
        in
        let denied =
          if H.chance rng 0.5 then
            [ Model.deny (Model.Grp (H.int rng n_teams)) [ Access_mode.Write ] ]
          else []
        in
        [
          Model.allow (Model.Grp reader) [ Access_mode.Read ];
          Model.allow (Model.Grp writer) [ Access_mode.Read; Access_mode.Write ];
        ]
        @ denied
        @ [ Model.allow Model.All world ])
  in
  let file_level = Array.init n (fun _ -> level rng ~mid:0.25 ~high:0.15) in
  let contents =
    Array.init n (fun i ->
        let head = file_path (i / n_files) (i mod n_files) ^ ":" in
        head ^ String.init (64 - String.length head) (fun _ -> Char.chr (97 + H.int rng 26)))
  in
  { user_teams; user_level; file_entries; file_level; contents; writable_by_team }

let in_group spec u g =
  if g < n_teams then List.mem g spec.user_teams.(u)
  else List.exists (fun t -> t / 8 = g - n_teams) spec.user_teams.(u)

(* {1 Building the program's world} *)

type world = {
  kernel : Kernel.t;
  server : Server.t option;
  endpoint : Transport.Loopback.endpoint;
}

let ok what = function
  | Ok v -> v
  | Error _ -> failwith ("serve_files set-up: " ^ what)

let build spec ~serve =
  let hierarchy = Model.hierarchy () and universe = Model.universe () in
  let klass = Model.klass hierarchy universe in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let registry = Clearance.create () in
  Principal.Db.batch db (fun () ->
      Principal.Db.add_individual db admin;
      for t = 0 to n_teams - 1 do
        Principal.Db.add_member db
          (Principal.group (group_name (dept (t / 8))))
          (Principal.Grp (Principal.group (group_name t)))
      done;
      Array.iteri
        (fun u teams ->
          let who = Principal.individual (user_name u) in
          List.iter
            (fun t -> Principal.Db.add_member db (Principal.group (group_name t)) (Principal.Ind who))
            teams)
        spec.user_teams);
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Array.iteri
    (fun u level -> Clearance.register registry (Principal.individual (user_name u)) (klass level))
    spec.user_level;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let root = Kernel.admin_subject kernel in
  let group g = Principal.group (group_name g) in
  let dir_meta () =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (klass 0)
  in
  ignore (ok "mount" (Memfs.mount kernel ~subject:root ~world_writable:false ()));
  let ns = Kernel.namespace kernel in
  let fs = ok "find /fs" (Namespace.find ns (Path.of_string "/fs")) in
  for d = 0 to n_dirs - 1 do
    let dir = ok "dir" (Namespace.add_dir_at ns fs (Printf.sprintf "d%02d" d) ~meta:(dir_meta ())) in
    for f = 0 to n_files - 1 do
      let i = (d * n_files) + f in
      let meta =
        Meta.make ~owner:admin ~acl:(Model.to_acl group spec.file_entries.(i)) (klass spec.file_level.(i))
      in
      ignore
        (ok "file"
           (Namespace.add_leaf_at ns dir (Printf.sprintf "f%02d" f) ~meta
              (Memfs.File (Memfs.file_make spec.contents.(i)))))
    done
  done;
  let svc = Path.of_string "/svc/files" in
  ok "/svc/files" (Kernel.add_dir kernel ~subject:root svc ~meta:(dir_meta ()));
  Array.iter
    (fun p ->
      let meta = Meta.make ~owner:admin ~acl:(Model.to_acl group p.p_entries) (klass p.p_level) in
      let impl _ctx args = Ok (p.p_value args) in
      ok p.p_name
        (Kernel.install_proc kernel ~subject:root (Path.child svc p.p_name) ~meta
           (Service.proc p.p_name p.p_arity impl)))
    procs;
  let endpoint = Transport.Loopback.create () in
  let server =
    if serve then begin
      let server = Server.create ~workers:1 kernel (Transport.Loopback.transport endpoint) in
      Server.start server;
      Some server
    end
    else None
  in
  { kernel; server; endpoint }

let release w = Option.iter Server.stop w.server

(* {1 The op stream} *)

type expect =
  | Value of Value.t
  | Denied

type session = {
  user : int;
  hello : string;
  hello_seq : int;
  frames : string array;
  seqs : int array;
  expects : expect array;
}

(* Op kinds, for the input report. *)
let kind_names = [| "read"; "write"; "resolve"; "call"; "open_handle"; "call_handle" |]

type stream = {
  sessions : session array;
  kinds : int array; (* per kind *)
  outcomes : int array; (* granted, DAC-denied, MAC-denied *)
  distinct_keys : int;
}

let generate spec seed =
  let rng = H.rng seed 2 in
  let kinds = Array.make (Array.length kind_names) 0 in
  let outcomes = Array.make 3 0 in
  let keys = Hashtbl.create 65536 in
  let key u obj mode = Hashtbl.replace keys (u, obj, Access_mode.index mode) () in
  let file_outcome u i mode =
    Model.outcome ~in_group:(in_group spec u) ~entries:spec.file_entries.(i)
      ~subject_level:spec.user_level.(u) ~object_level:spec.file_level.(i) mode
  in
  let proc_outcome u p =
    Model.outcome ~in_group:(in_group spec u) ~entries:procs.(p).p_entries
      ~subject_level:spec.user_level.(u) ~object_level:procs.(p).p_level Access_mode.Execute
  in
  let count_outcome o =
    let k =
      match o with
      | Model.Granted -> 0
      | Model.Dac_denied -> 1
      | Model.Mac_denied -> 2
    in
    outcomes.(k) <- outcomes.(k) + 1
  in
  (* A file whose outcome for (u, mode) is [want], when one turns up:
     writers are looked up through the teams that may write, everything
     else by sampling. *)
  let find_file u mode want =
    let candidates =
      if mode = Access_mode.Write && want <> Model.Dac_denied then
        Array.of_list (List.concat_map (fun t -> spec.writable_by_team.(t)) spec.user_teams.(u))
      else [||]
    in
    let draw () =
      if Array.length candidates > 0 then H.pick rng candidates else H.int rng (n_dirs * n_files)
    in
    let rec go tries =
      let i = draw () in
      if tries = 0 || file_outcome u i mode = want then i else go (tries - 1)
    in
    go 64
  in
  let seq = ref 0 in
  let session () =
    let u = H.int rng n_users in
    let creds =
      { Wire.principal = user_name u; secret = None; level = None; categories = [] }
    in
    incr seq;
    let hello_seq = !seq in
    let hello = Wire.encode_request (Wire.Hello { seq = hello_seq; creds }) in
    let handles = ref [] and next_handle = ref 0 in
    let frames = Array.make session_ops "" and expects = Array.make session_ops Denied in
    let seqs = Array.make session_ops 0 in
    for j = 0 to session_ops - 1 do
      let kind =
        if j = 0 then 4
        else
          let r = H.int rng 100 in
          if r < 35 then 0 else if r < 50 then 1 else if r < 70 then 2 else if r < 85 then 3
          else if r < 97 then 5 else 4
      in
      kinds.(kind) <- kinds.(kind) + 1;
      let want =
        let r = H.int rng 100 in
        if r < 84 then Model.Granted else if r < 94 then Model.Dac_denied else Model.Mac_denied
      in
      let dir_keys u d =
        key u (-1) Access_mode.List;
        key u (-2) Access_mode.List;
        key u (-3 - d) Access_mode.List
      in
      let call_args p =
        match procs.(p).p_arity with
        | 0 -> []
        | 1 -> [ Value.int (H.int rng 1000) ]
        | _ -> [ Value.int (H.int rng 1000); Value.int (H.int rng 1000) ]
      in
      let op, expect =
        match kind with
        | 0 | 1 | 2 ->
          let mode =
            if kind = 0 then Access_mode.Read
            else if kind = 1 then Access_mode.Write
            else if H.chance rng 0.5 then Access_mode.Read
            else Access_mode.Write
          in
          let i = find_file u mode want in
          let o = file_outcome u i mode in
          count_outcome o;
          dir_keys u (i / n_files);
          key u i mode;
          let path = file_path (i / n_files) (i mod n_files) in
          let granted = o = Model.Granted in
          if mode = Access_mode.Read && kind <> 2 then
            Wire.Read { path }, if granted then Value (Value.str spec.contents.(i)) else Denied
          else if kind <> 2 then
            ( Wire.Write { path; data = spec.contents.(i); append = false },
              if granted then Value Value.unit else Denied )
          else
            ( Wire.Resolve { path; mode = Access_mode.to_string mode },
              if granted then Value (Value.str "file") else Denied )
        | 3 ->
          let p = H.int rng (Array.length procs) in
          let o = proc_outcome u p in
          count_outcome o;
          key u (100_000 + p) Access_mode.Execute;
          let args = call_args p in
          ( Wire.Call { path = "/svc/files/" ^ procs.(p).p_name; args },
            if o = Model.Granted then Value (procs.(p).p_value args) else Denied )
        | 4 ->
          (* stat or echo; echo is MAC-denied below mid. *)
          let p = if j = 0 || H.chance rng 0.5 then 0 else 2 in
          let o = proc_outcome u p in
          count_outcome o;
          key u (100_000 + p) Access_mode.Execute;
          if o = Model.Granted then begin
            handles := (!next_handle, p) :: !handles;
            incr next_handle;
            Wire.Open_handle { path = "/svc/files/" ^ procs.(p).p_name },
            Value (Value.int (!next_handle - 1))
          end
          else Wire.Open_handle { path = "/svc/files/" ^ procs.(p).p_name }, Denied
        | _ ->
          let id, p = List.nth !handles (H.int rng (List.length !handles)) in
          let args = call_args p in
          Wire.Call_handle { handle = id; args }, Value (procs.(p).p_value args)
      in
      incr seq;
      seqs.(j) <- !seq;
      frames.(j) <- Wire.encode_request (Wire.Op { seq = !seq; op });
      expects.(j) <- expect
    done;
    { user = u; hello; hello_seq; frames; seqs; expects }
  in
  let sessions = Array.init n_sessions (fun _ -> session ()) in
  { sessions; kinds; outcomes; distinct_keys = Hashtbl.length keys }

(* {1 The client} *)

let expected_body expect (body : Wire.body) =
  match expect, body with
  | Value v, Wire.Value w -> Value.equal v w
  | Denied, Wire.Error (Wire.Denied _) -> true
  | _ -> false

let decode_seq frame =
  match Wire.decode_response frame with
  | Ok { Wire.seq; body } -> Some (seq, body)
  | Error _ -> None

type client = {
  lat : H.samples;
  hello_lat : H.samples;
  tally : H.tally;
  mutable next : int; (* next session in the stream *)
}

let span_hello = lazy (H.Spans.intern "client.hello")
let span_op = lazy (H.Spans.intern "client.op")

(* One session: connect, Hello, [session_ops] requests, close.
   Returns the number of correct operations. *)
let run_session w stream c =
  let k = c.next in
  c.next <- (k + 1) mod Array.length stream.sessions;
  let s = stream.sessions.(k) in
  let t = c.tally in
  let conn = Transport.Loopback.connect w.endpoint in
  let good = ref 0 in
  let sp = H.Spans.enter (Lazy.force span_hello) ~parent:(-1) ~req:k in
  let t0 = H.now_ns () in
  let hello =
    match conn.Transport.send s.hello with
    | () -> conn.Transport.recv ()
    | exception Transport.Closed -> None
  in
  let t1 = H.now_ns () in
  H.Spans.leave sp;
  let authenticated =
    match Option.bind hello decode_seq with
    | Some (seq, Wire.Hello_ok _) when seq = s.hello_seq ->
      H.add c.hello_lat (t1 - t0);
      true
    | _ -> false
  in
  if not authenticated then begin
    t.H.attempted <- t.H.attempted + session_ops;
    t.H.failed <- t.H.failed + session_ops - 1;
    H.wrong t (Printf.sprintf "hello refused for %s" (user_name s.user))
  end
  else begin
    let j = ref 0 in
    while !j < session_ops do
      let i = !j in
      t.H.attempted <- t.H.attempted + 1;
      let sp = H.Spans.enter (Lazy.force span_op) ~parent:(-1) ~req:s.seqs.(i) in
      let t0 = H.now_ns () in
      let reply =
        match conn.Transport.send s.frames.(i) with
        | () -> conn.Transport.recv ()
        | exception Transport.Closed -> None
      in
      let t1 = H.now_ns () in
      H.Spans.leave sp;
      (match reply with
      | None ->
        (* The connection dropped: the rest of the session is lost. *)
        t.H.failed <- t.H.failed + (session_ops - i);
        t.H.attempted <- t.H.attempted + (session_ops - i - 1);
        j := session_ops
      | Some frame -> (
        H.add c.lat (t1 - t0);
        match decode_seq frame with
        | Some (seq, body) when seq = s.seqs.(i) && expected_body s.expects.(i) body ->
          incr good
        | Some (_, Wire.Busy _) -> t.H.failed <- t.H.failed + 1
        | Some (_, body) ->
          H.wrong t
            (Format.asprintf "%s session %d op %d: got %a" (user_name s.user) k i Wire.pp_body body)
        | None -> H.wrong t "undecodable response"));
      incr j
    done
  end;
  conn.Transport.close ();
  !good

let client () = { lat = H.samples 65536; hello_lat = H.samples 16384; tally = H.tally (); next = 0 }

(* {1 The in-process replay (traced run only)}

   The client cannot see the server's layers, so the traced run also
   replays the op stream in this domain, on an identical world, in the
   server's order: decode, resolve, decide on the target, memfs or
   kernel dispatch, encode. *)

type replay_stats = {
  decode : H.samples;
  encode : H.samples;
  resolve : H.samples;
  decide : H.samples;
  read : H.samples;
  replace : H.samples;
  kcall : H.samples;
  hcall : H.samples;
  mutable frame_bytes : int;
  mutable frames : int;
  mutable resolved : Path.t list;
}

let replay spec stream ~sessions tally =
  let w = build spec ~serve:false in
  let kernel = w.kernel in
  let resolver = Kernel.resolver kernel and monitor = Kernel.monitor kernel in
  let ns = Kernel.namespace kernel in
  let registry = Option.get (Kernel.registry kernel) in
  let st =
    {
      decode = H.samples 65536; encode = H.samples 65536; resolve = H.samples 65536;
      decide = H.samples 65536; read = H.samples 65536; replace = H.samples 65536;
      kcall = H.samples 65536; hcall = H.samples 65536; frame_bytes = 0; frames = 0;
      resolved = [];
    }
  in
  let sid name = H.Spans.intern name in
  let s_op = sid "replay.op" and s_decode = sid "wire.decode_request"
  and s_resolve = sid "resolver.resolve" and s_decide = sid "monitor.decide"
  and s_read = sid "memfs.read" and s_replace = sid "memfs.replace"
  and s_call = sid "kernel.call" and s_open = sid "kernel.open_handle"
  and s_hcall = sid "kernel.call_handle" and s_encode = sid "wire.encode_response" in
  let layer span parent = H.layer span ~parent in
  let unresolved = Wire.Error (Wire.Unresolved "replay") in
  let denied = Wire.Error (Wire.Denied { at = ""; mode = ""; denial = "" }) in
  let body_of = function
    | Ok v -> Wire.Value v
    | Error (Service.Denied _) -> denied
    | Error _ -> unresolved
  in
  let req = ref 0 in
  for k = 0 to sessions - 1 do
    let s = stream.sessions.(k mod Array.length stream.sessions) in
    let subject =
      match Clearance.login registry (Principal.individual (user_name s.user)) with
      | Ok subject -> subject
      | Error _ -> failwith "replay login"
    in
    let caller = "replay:" ^ user_name s.user in
    let handles = Hashtbl.create 8 and next_handle = ref 0 in
    Array.iteri
      (fun i frame ->
        incr req;
        tally.H.attempted <- tally.H.attempted + 1;
        let root = H.Spans.enter s_op ~parent:(-1) ~req:!req in
        let request = layer s_decode root st.decode (fun () -> Wire.decode_request frame) in
        let seq, body =
          match request with
          | Ok (Wire.Op { seq; op }) ->
            let file_op path mode k =
              let path = Path.of_string path in
              st.resolved <- path :: st.resolved;
              match
                layer s_resolve root st.resolve (fun () -> Resolver.resolve resolver ~subject ~mode path)
              with
              | Error (Resolver.Denied _) -> denied
              | Error (Resolver.Name_error _) -> unresolved
              | Ok node ->
                ignore
                  (layer s_decide root st.decide (fun () ->
                       Reference_monitor.decide monitor ~subject ~meta:(Namespace.meta node) ~mode));
                k node
            in
            let file node k =
              match Namespace.payload node with
              | Some (Memfs.File f) -> k f
              | _ -> unresolved
            in
            ( seq,
              match op with
              | Wire.Read { path } ->
                file_op path Access_mode.Read (fun node ->
                    file node (fun f ->
                        Wire.Value
                          (Value.str (layer s_read root st.read (fun () -> Memfs.file_contents f)))))
              | Wire.Write { path; data; _ } ->
                file_op path Access_mode.Write (fun node ->
                    file node (fun f ->
                        layer s_replace root st.replace (fun () -> Memfs.file_replace f data);
                        Wire.Value Value.unit))
              | Wire.Resolve { path; mode } ->
                file_op path (Option.get (Access_mode.of_string mode)) (fun _ ->
                    Wire.Value (Value.str "file"))
              | Wire.Call { path; args } ->
                body_of
                  (layer s_call root st.kcall (fun () ->
                       Kernel.call kernel ~subject ~caller (Path.of_string path) args))
              | Wire.Open_handle { path } -> (
                let i = H.Spans.enter s_open ~parent:root ~req:0 in
                let r = Kernel.open_handle kernel ~subject ~caller (Path.of_string path) in
                H.Spans.leave i;
                match r with
                | Ok h ->
                  Hashtbl.replace handles !next_handle h;
                  incr next_handle;
                  Wire.Value (Value.int (!next_handle - 1))
                | Error e -> body_of (Error e))
              | Wire.Call_handle { handle; args } -> (
                match Hashtbl.find_opt handles handle with
                | None -> unresolved
                | Some h ->
                  body_of (layer s_hcall root st.hcall (fun () -> Kernel.call_handle kernel h args)))
              | Wire.Close_handle _ -> unresolved )
          | Ok (Wire.Hello _) | Error _ -> 0, unresolved
        in
        let response =
          layer s_encode root st.encode (fun () -> Wire.encode_response { Wire.seq; body })
        in
        H.Spans.leave root;
        st.frame_bytes <- st.frame_bytes + String.length frame + String.length response;
        st.frames <- st.frames + 1;
        if not (expected_body s.expects.(i) body) then
          H.wrong tally (Printf.sprintf "replay: session %d op %d differs" k i))
      s.frames;
    Hashtbl.iter (fun _ h -> ignore (Kernel.close_handle kernel h)) handles
  done;
  H.set_width_walked ns st.resolved;
  st

(* {1 Runs} *)

let note_inputs w stream =
  H.note_int "principals" n_users;
  H.note_int "groups" (n_teams + n_depts);
  H.note_int "group_nesting_depth" 2;
  H.note_int "files" (n_dirs * n_files);
  let width path =
    match Namespace.find (Kernel.namespace w.kernel) (Path.of_string path) with
    | Ok node -> List.length (Namespace.children node)
    | Error _ -> 0
  in
  H.note_str "directory_widths_walked"
    (Printf.sprintf "/ %d, /fs %d, /fs/d00 %d" (width "/") (width "/fs") (width "/fs/d00"));
  H.note_int "session_ops" session_ops;
  H.note_int "stream_ops" (n_sessions * session_ops);
  H.note_int "distinct_decision_keys" stream.distinct_keys;
  H.note_int "decision_cache_capacity" 8192;
  let total = Array.fold_left ( + ) 0 stream.outcomes in
  let share k = float_of_int stream.outcomes.(k) /. float_of_int (max 1 total) in
  H.note_float "expected_dac_denied_share" (share 1);
  H.note_float "expected_mac_denied_share" (share 2);
  let ops = Array.fold_left ( + ) 0 stream.kinds in
  Array.iteri
    (fun k name ->
      H.note_float ("mix." ^ name) (float_of_int stream.kinds.(k) /. float_of_int ops))
    kind_names

let run ~seed ~seconds ~trace tally =
  let spec = make_spec seed in
  let stream = generate spec seed in
  (* Warm-up: compile every object's ACL once (the dense compiled form
     is what holds most of the heap, so it is built before the timed
     region rather than during it), then a few sessions. *)
  let warm w =
    let db = Kernel.db w.kernel in
    Namespace.iter (Kernel.namespace w.kernel) (fun node ->
        ignore (Meta.compiled_acl (Namespace.meta node) ~db));
    let c = client () in
    for _ = 1 to 8 do
      ignore (run_session w stream c)
    done
  in
  let w =
    H.setup ~reps:5 ~release (fun () ->
        let w = build spec ~serve:true in
        warm w;
        w)
  in
  note_inputs w stream;
  let region c =
    Gc.compact ();
    let gc0 = H.gc_mark () in
    let r = H.timed_region ~seconds ~lat:c.lat (fun () -> run_session w stream c) in
    r, gc0
  in
  let c = client () in
  let r, gc0 = region c in
  H.merge tally c.tally;
  H.note_int "ops_completed" r.H.ops;
  H.set "handshake_p50_us" (H.p50_us c.hello_lat);
  H.note_int "handshakes" c.hello_lat.H.seen;
  if not trace then begin
    H.set_region r;
    H.note_gc ~ops:r.H.ops gc0;
    (* A domain sweeps its own heap only when it runs, so garbage the
       idle worker has not yet swept would count as live: join the
       server first, keeping the world it served alive. *)
    release w;
    H.set "heap_mb" (H.heap_mb ());
    ignore (Sys.opaque_identity w)
  end
  else begin
    H.set "trace.untraced_ops_per_s" r.H.ops_per_s;
    H.Spans.start_tracing ();
    (* In-process replay of the same stream on an identical world. *)
    let st = replay spec stream ~sessions:64 tally in
    H.set "wire.decode_ns" (H.p50_ns st.decode);
    H.set "wire.encode_ns" (H.p50_ns st.encode);
    H.set "wire.frame_bytes" (float_of_int st.frame_bytes /. float_of_int (max 1 st.frames));
    let resolves = H.sorted st.resolve in
    H.set "resolver.resolve_us" (H.quantile resolves 0.5 /. 1e3);
    H.set "resolver.resolve_us.p99" (H.quantile resolves 0.99 /. 1e3);
    H.set "monitor.decide_ns" (H.p50_ns st.decide);
    H.set "memfs.read_ns" (H.p50_ns st.read);
    H.set "memfs.replace_ns" (H.p50_ns st.replace);
    H.set "kernel.call_ns" (H.p50_ns st.kcall);
    H.set "handle.call_ns" (H.p50_ns st.hcall);
    (* The traced wire pass: obs counters on, client spans on. *)
    Metrics.reset ();
    Metrics.set_enabled true;
    let cache0 = Kernel.cache_stats w.kernel in
    let c = client () in
    let r, gc0 = region c in
    Metrics.set_enabled false;
    H.Spans.stop_tracing ();
    H.merge tally c.tally;
    let ops = r.H.ops in
    H.note_gc ~ops gc0;
    H.set "trace.ops_per_s" r.H.ops_per_s;
    (* Raw, like the server's own histogram it is compared with. *)
    let rtt_us = r.H.raw_p50_us in
    let request_us = Metrics.quantile (Metrics.histogram "serve.request_ns") 0.5 /. 1e3 in
    H.set "server.request_us" request_us;
    H.set "transport.handoff_us" (rtt_us -. request_us);
    H.set "server.hello_us" (H.p50_us c.hello_lat -. (rtt_us -. request_us));
    H.set_counter_metrics ~ops;
    H.set_cache_metrics ~edits:0 cache0 (Kernel.cache_stats w.kernel)
  end;
  release w
