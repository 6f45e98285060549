open Exsec_core
open Exsec_extsys
open Exsec_services
open Exsec_workload
open Exsec_serve

(* [Exsec_extsys.Domain] shadows stdlib [Domain]; alias it back for
   the concurrent-client tests. *)
module Sys_domain = Stdlib.Domain
module Metrics = Exsec_obs.Metrics

let check = Alcotest.(check bool)

(* {1 Wire codec} *)

let roundtrip_request r =
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' -> r' = r
  | Error _ -> false

let roundtrip_response r =
  match Wire.decode_response (Wire.encode_response r) with
  | Ok r' -> r' = r
  | Error _ -> false

(* [n] nested levels of [wrap] around [Unit]. *)
let nested n wrap =
  let rec go n = if n = 0 then Value.unit else wrap (go (n - 1)) in
  go n

let pairs n = nested n (fun v -> Value.pair v Value.unit)
let call_with arg = Wire.Op { seq = 1; op = Wire.Call { path = "/svc/p"; args = [ arg ] } }

let test_wire_roundtrip () =
  let creds =
    {
      Wire.principal = "alice";
      secret = Some "hunter2";
      level = Some "local";
      categories = [ "a"; "b" ];
    }
  in
  let requests =
    [
      Wire.Hello { seq = 1; creds };
      Wire.Hello { seq = 2; creds = { creds with Wire.secret = None; categories = [] } };
      Wire.Op { seq = 3; op = Wire.Resolve { path = "/fs/x"; mode = "read" } };
      Wire.Op
        {
          seq = 4;
          op = Wire.Call { path = "/svc/p"; args = [ Value.int 7; Value.str "s" ] };
        };
      Wire.Op { seq = 5; op = Wire.Open_handle { path = "/svc/p" } };
      Wire.Op { seq = 6; op = Wire.Call_handle { handle = 0; args = [ Value.unit ] } };
      Wire.Op { seq = 7; op = Wire.Close_handle { handle = 0 } };
      Wire.Op { seq = 8; op = Wire.Read { path = "/fs/x" } };
      Wire.Op { seq = 9; op = Wire.Write { path = "/fs/x"; data = "d"; append = true } };
    ]
  in
  List.iteri
    (fun i r -> check (Printf.sprintf "request %d" i) true (roundtrip_request r))
    requests;
  let responses =
    [
      { Wire.seq = 1; body = Wire.Hello_ok { principal = "alice"; klass = "local/{a}" } };
      { Wire.seq = 2; body = Wire.Value (Value.list [ Value.int 1; Value.bool true ]) };
      { Wire.seq = 3; body = Wire.Busy "over budget" };
      {
        Wire.seq = 4;
        body = Wire.Error (Wire.Denied { at = "/fs/x"; mode = "read"; denial = "mac: read-up" });
      };
      { Wire.seq = 5; body = Wire.Error (Wire.Bad_arity { proc = "p"; expected = 2; got = 1 }) };
      { Wire.seq = 6; body = Wire.Error (Wire.Quota_exceeded "calls") };
      { Wire.seq = 7; body = Wire.Error (Wire.Protocol "trailing bytes") };
    ]
  in
  List.iteri
    (fun i r -> check (Printf.sprintf "response %d" i) true (roundtrip_response r))
    responses

let test_wire_hostile_bytes () =
  (* Decoders must refuse, never raise. *)
  let hostile =
    [
      "";
      "\x00";
      "\xff\xff\xff\xff";
      String.make 64 '\x07';
      (* a valid frame with trailing garbage *)
      Wire.encode_request (Wire.Op { seq = 1; op = Wire.Read { path = "/x" } }) ^ "!";
      (* a well-formed Call whose argument nests one level too deep *)
      Wire.encode_request (call_with (pairs (Wire.max_depth + 1)));
    ]
  in
  List.iteri
    (fun i bytes ->
      (match Wire.decode_request bytes with
      | Ok _ -> Alcotest.failf "hostile request %d decoded" i
      | Error _ -> ());
      match Wire.decode_response bytes with
      | Ok _ -> Alcotest.failf "hostile response %d decoded" i
      | Error _ -> ())
    hostile

let test_wire_nesting_cap () =
  let lists n = nested n (fun v -> Value.list [ v ]) in
  let refused = Error "value nested too deep" in
  List.iter
    (fun (label, deep) ->
      let at_cap = deep Wire.max_depth and over = deep (Wire.max_depth + 1) in
      check (label ^ ": request at the cap") true (roundtrip_request (call_with at_cap));
      check (label ^ ": response at the cap") true
        (roundtrip_response { Wire.seq = 1; body = Wire.Value at_cap });
      check (label ^ ": request over the cap") true
        (Wire.decode_request (Wire.encode_request (call_with over)) = refused);
      check (label ^ ": response over the cap") true
        (Wire.decode_response (Wire.encode_response { Wire.seq = 1; body = Wire.Value over })
        = refused))
    [ "pairs", pairs; "lists", lists ]

(* {1 The loopback channel}

   Every Loopback connection and the server's accept queue go through
   [Transport.Chan].  A push or close whose wake-up goes missing
   leaves a [pop] blocked forever, so these tests finish against a
   deadline instead of hanging the suite. *)

module Chan = Transport.Chan

let deadline_s = 20.

let within_deadline finished =
  let deadline = Unix.gettimeofday () +. deadline_s in
  while (not (finished ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  finished ()

let test_chan_ping_pong () =
  let rounds = 10_000 in
  let ping = Chan.create () and pong = Chan.create () in
  let echo =
    Sys_domain.spawn (fun () ->
        let rec serve served =
          match Chan.pop ping with
          | Some x -> if Chan.push pong x then serve (served + 1) else served
          | None -> served
        in
        serve 0)
  in
  (* A lost wake-up blocks one side for good; closing both channels at
     the deadline ends the run so the counts below report it. *)
  let finished = Atomic.make false in
  let watchdog =
    Sys_domain.spawn (fun () ->
        ignore (within_deadline (fun () -> Atomic.get finished));
        Chan.close ping;
        Chan.close pong)
  in
  let rec drive i =
    if i = rounds || not (Chan.push ping i) then i
    else
      match Chan.pop pong with
      | Some j when j = i -> drive (i + 1)
      | _ -> i
  in
  let completed = drive 0 in
  Atomic.set finished true;
  Sys_domain.join watchdog;
  let served = Sys_domain.join echo in
  Alcotest.(check int) "every round trip before the deadline" rounds completed;
  Alcotest.(check int) "every ping echoed" rounds served

let test_chan_mpmc () =
  let producers = 2 and consumers = 2 and per_producer = 20_000 in
  let chan = Chan.create () in
  let producing =
    List.init producers (fun p ->
        Sys_domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              if not (Chan.push chan (p, i)) then failwith "push refused while open"
            done))
  in
  let consuming =
    List.init consumers (fun _ ->
        Sys_domain.spawn (fun () ->
            let rec drain acc =
              match Chan.pop chan with Some x -> drain (x :: acc) | None -> List.rev acc
            in
            drain []))
  in
  List.iter Sys_domain.join producing;
  Chan.close chan;
  let popped = List.map Sys_domain.join consuming in
  let times = Array.make_matrix producers per_producer 0 in
  List.iteri
    (fun c elements ->
      let last = Array.make producers (-1) in
      List.iter
        (fun (p, i) ->
          if i <= last.(p) then
            Alcotest.failf "consumer %d saw producer %d's %d after its %d" c p i last.(p);
          last.(p) <- i;
          times.(p).(i) <- times.(p).(i) + 1)
        elements)
    popped;
  Array.iteri
    (fun p row ->
      Array.iteri
        (fun i n ->
          if n <> 1 then Alcotest.failf "producer %d's element %d popped %d times" p i n)
        row)
    times

let test_chan_close () =
  let chan : int Chan.chan = Chan.create () in
  let returned = Atomic.make 0 in
  let blocked =
    List.init 3 (fun _ ->
        Sys_domain.spawn (fun () ->
            let got = Chan.pop chan in
            Atomic.incr returned;
            got))
  in
  Unix.sleepf 0.05;
  Alcotest.(check int) "pop blocks while open and empty" 0 (Atomic.get returned);
  Chan.close chan;
  if not (within_deadline (fun () -> Atomic.get returned = 3)) then
    Alcotest.failf "a pop still blocked %.0f s after close" deadline_s;
  List.iter (fun d -> check "a blocked pop returns None" true (Sys_domain.join d = None)) blocked;
  let chan = Chan.create () in
  check "push while open" true (Chan.push chan 1 && Chan.push chan 2);
  Chan.close chan;
  check "push after close refused" false (Chan.push chan 3);
  Alcotest.(check (list (option int)))
    "pop drains the queue, then None" [ Some 1; Some 2; None; None ]
    (List.init 4 (fun _ -> Chan.pop chan))

(* {1 Serve worlds} *)

let rpc conn request =
  conn.Transport.send (Wire.encode_request request);
  match conn.Transport.recv () with
  | None -> Alcotest.fail "connection closed mid-conversation"
  | Some frame -> (
    match Wire.decode_response frame with
    | Ok response -> response
    | Error reason -> Alcotest.failf "malformed response: %s" reason)

let scenario_world ?(workers = 2) () =
  let scenario = Scenario.build () in
  let endpoint = Transport.Loopback.create () in
  let server =
    Server.create ~workers scenario.Scenario.kernel
      (Transport.Loopback.transport endpoint)
  in
  Server.start server;
  (scenario, endpoint, server)

let user_creds =
  {
    Wire.principal = "user";
    secret = None;
    level = Some "local";
    categories = Scenario.categories;
  }

let outside_creds =
  {
    Wire.principal = "applet-outside";
    secret = None;
    level = Some "others";
    categories = [ "outside" ];
  }

let hello ?(seq = 1) conn creds = rpc conn (Wire.Hello { seq; creds })

let expect_hello_ok label body =
  match body with
  | Wire.Hello_ok _ -> ()
  | other -> Alcotest.failf "%s: %a" label Wire.pp_body other

(* {1 Authentication} *)

let test_auth_unknown_principal () =
  let _, endpoint, server = scenario_world () in
  let conn = Transport.Loopback.connect endpoint in
  let { Wire.seq; body } =
    hello ~seq:42 conn { user_creds with Wire.principal = "nobody" }
  in
  Alcotest.(check int) "seq echoed" 42 seq;
  (match body with
  | Wire.Error (Wire.Auth_failed why) -> check "reason non-empty" true (why <> "")
  | other -> Alcotest.failf "expected Auth_failed, got %a" Wire.pp_body other);
  (* A refused hello hangs up. *)
  check "closed after refusal" true (conn.Transport.recv () = None);
  conn.Transport.close ();
  Server.stop server

let test_auth_registry_secret () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  List.iter (Principal.Db.add_individual db) [ admin; alice ];
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let registry = Clearance.create () in
  Clearance.register registry ~secret:"s3cret" alice
    (Security_class.make (Level.of_name_exn hierarchy "hi") (Category.empty universe));
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let endpoint = Transport.Loopback.create () in
  let server = Server.create ~workers:1 kernel (Transport.Loopback.transport endpoint) in
  Server.start server;
  let creds secret =
    { Wire.principal = "alice"; secret; level = None; categories = [] }
  in
  (* Wrong secret: the registry's refusal crosses the wire. *)
  let conn = Transport.Loopback.connect endpoint in
  (match (hello conn (creds (Some "wrong"))).Wire.body with
  | Wire.Error (Wire.Auth_failed _) -> ()
  | other -> Alcotest.failf "wrong secret admitted: %a" Wire.pp_body other);
  conn.Transport.close ();
  (* Right secret: session established below-or-at clearance. *)
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "right secret" (hello conn (creds (Some "s3cret"))).Wire.body;
  conn.Transport.close ();
  (* Above clearance: lo-cleared bob does not exist; alice asking for a
     class above her clearance is refused by the registry, not served. *)
  let conn = Transport.Loopback.connect endpoint in
  (match
     (hello conn { (creds (Some "s3cret")) with Wire.level = Some "nonexistent" }).Wire.body
   with
  | Wire.Error (Wire.Auth_failed _) -> ()
  | other -> Alcotest.failf "unknown level admitted: %a" Wire.pp_body other);
  conn.Transport.close ();
  Server.stop server

let test_op_before_hello () =
  let _, endpoint, server = scenario_world () in
  let conn = Transport.Loopback.connect endpoint in
  let { Wire.body; _ } = rpc conn (Wire.Op { seq = 1; op = Wire.Read { path = "/fs/user-data" } }) in
  (match body with
  | Wire.Error (Wire.Protocol _) -> ()
  | other -> Alcotest.failf "op before hello answered %a" Wire.pp_body other);
  check "closed after protocol error" true (conn.Transport.recv () = None);
  conn.Transport.close ();
  Server.stop server

(* {1 Denial mapping}

   The same monitor refusal must cross the wire as exactly
   [Wire.error_of_service (Service.error_of_denial denial)] — the
   mapping every other error path composes with. *)

let test_denial_mapping () =
  let scenario, endpoint, server = scenario_world () in
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "outside hello" (hello conn outside_creds).Wire.body;
  let { Wire.body; _ } =
    rpc conn (Wire.Op { seq = 2; op = Wire.Read { path = "/fs/user-data" } })
  in
  conn.Transport.close ();
  Server.stop server;
  (* The same decision taken directly, mapped through the canonical
     composition. *)
  let kernel = scenario.Scenario.kernel in
  let subject =
    Subject.make
      (Principal.individual "applet-outside")
      (Security_class.make
         (Level.of_name_exn (Kernel.hierarchy kernel) "others")
         (Category.of_names (Kernel.universe kernel) [ "outside" ]))
  in
  let direct =
    match
      Resolver.resolve (Kernel.resolver kernel) ~subject ~mode:Access_mode.Read
        (Path.of_string "/fs/user-data")
    with
    | Error denial -> Wire.error_of_service (Service.error_of_denial denial)
    | Ok _ -> Alcotest.fail "outside subject read user-data directly"
  in
  match body with
  | Wire.Error wire_error ->
    check "wire error = error_of_service of the direct denial" true (wire_error = direct)
  | other -> Alcotest.failf "expected a denial, got %a" Wire.pp_body other

(* Every denial renders to one fixed text, the same through
   [Decision.pp_denial] and on the wire. *)
let test_denial_text () =
  let cases =
    [
      Decision.Dac_no_entry, "no matching ACL entry";
      ( Decision.Dac_explicit_deny (Acl.Individual (Principal.individual "alice")),
        "explicit ACL deny for user alice" );
      Decision.Dac_explicit_deny (Acl.Group (Principal.group "staff")), "explicit ACL deny for group staff";
      Decision.Dac_explicit_deny Acl.Everyone, "explicit ACL deny for everyone";
      Decision.Mac_denied Mac.Read_up, "MAC: read-up (subject class does not dominate object)";
      Decision.Mac_denied Mac.Write_down, "MAC: write-down (object class does not dominate subject)";
      ( Decision.Mac_denied Mac.Blind_overwrite,
        "MAC: blind overwrite (strict rule requires equal classes; use write-append)" );
      ( Decision.Integrity_denied Integrity.Read_down,
        "integrity: read-down (object integrity does not dominate subject)" );
      ( Decision.Integrity_denied Integrity.Write_up,
        "integrity: write-up (subject integrity does not dominate object)" );
      Decision.Not_an_object, "no such object";
      Decision.Path_denied "/fs/secret", "traversal refused at /fs/secret";
    ]
  in
  List.iter
    (fun (denial, text) ->
      Alcotest.(check string) text text (Decision.denial_to_string denial);
      Alcotest.(check string) (text ^ " (pp)") text (Format.asprintf "%a" Decision.pp_denial denial);
      match
        Wire.error_of_service (Service.Denied { at = "/x"; mode = Access_mode.Read; denial })
      with
      | Wire.Denied { denial = wired; _ } -> Alcotest.(check string) (text ^ " (wire)") text wired
      | _ -> Alcotest.fail "a denial left the wire as another error")
    cases

(* {1 Quota backpressure} *)

let test_quota_backpressure () =
  let scenario, endpoint, server = scenario_world () in
  let kernel = scenario.Scenario.kernel in
  (match
     Memfs.install_service scenario.Scenario.fs ~subject:(Kernel.admin_subject kernel)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install /svc/fs: %s" (Service.error_to_string e));
  Quota.set (Kernel.quota kernel) (Principal.individual "user") (Quota.calls 3);
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "user hello" (hello conn user_creds).Wire.body;
  let call seq =
    (rpc conn
       (Wire.Op
          { seq; op = Wire.Call { path = "/svc/fs/read"; args = [ Value.str "user-data" ] } }))
      .Wire.body
  in
  for seq = 2 to 4 do
    match call seq with
    | Wire.Value _ -> ()
    | other -> Alcotest.failf "call %d refused: %a" seq Wire.pp_body other
  done;
  (match call 5 with
  | Wire.Busy _ -> ()
  | other -> Alcotest.failf "over-budget call answered %a" Wire.pp_body other);
  (match call 6 with
  | Wire.Busy _ -> ()
  | other -> Alcotest.failf "still over budget, got %a" Wire.pp_body other);
  (* Backpressure, not a hangup: the connection still serves requests
     that charge nothing. *)
  (match (rpc conn (Wire.Op { seq = 7; op = Wire.Read { path = "/fs/user-data" } })).Wire.body with
  | Wire.Value (Value.Str _) -> ()
  | other -> Alcotest.failf "post-Busy read refused: %a" Wire.pp_body other);
  conn.Transport.close ();
  Server.stop server

(* {1 Capability handles are connection-scoped} *)

let test_handles_scoped_to_connection () =
  let scenario, endpoint, server = scenario_world () in
  let kernel = scenario.Scenario.kernel in
  (match
     Memfs.install_service scenario.Scenario.fs ~subject:(Kernel.admin_subject kernel)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install /svc/fs: %s" (Service.error_to_string e));
  let a = Transport.Loopback.connect endpoint in
  expect_hello_ok "a hello" (hello a user_creds).Wire.body;
  let id =
    match (rpc a (Wire.Op { seq = 2; op = Wire.Open_handle { path = "/svc/fs/read" } })).Wire.body with
    | Wire.Value (Value.Int id) -> id
    | other -> Alcotest.failf "open_handle: %a" Wire.pp_body other
  in
  (match
     (rpc a (Wire.Op { seq = 3; op = Wire.Call_handle { handle = id; args = [ Value.str "user-data" ] } }))
       .Wire.body
   with
  | Wire.Value (Value.Str _) -> ()
  | other -> Alcotest.failf "call_handle: %a" Wire.pp_body other);
  (* Another connection cannot use A's wire id: the table is per
     connection, and the kernel handle behind it is unreachable. *)
  let b = Transport.Loopback.connect endpoint in
  expect_hello_ok "b hello" (hello b user_creds).Wire.body;
  (match
     (rpc b (Wire.Op { seq = 2; op = Wire.Call_handle { handle = id; args = [ Value.str "user-data" ] } }))
       .Wire.body
   with
  | Wire.Error (Wire.Bad_argument _) -> ()
  | other -> Alcotest.failf "foreign handle id served: %a" Wire.pp_body other);
  (match (rpc a (Wire.Op { seq = 4; op = Wire.Close_handle { handle = id } })).Wire.body with
  | Wire.Value (Value.Bool true) -> ()
  | other -> Alcotest.failf "close_handle: %a" Wire.pp_body other);
  a.Transport.close ();
  b.Transport.close ();
  Server.stop server

(* {1 The per-connection handle table is capped} *)

let test_handle_table_capped () =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  let counter name =
    match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with
    | Some v -> v
    | None -> 0
  in
  let requests0 = counter "serve.requests" in
  let responses0 = counter "serve.responses" in
  let scenario, endpoint, server = scenario_world () in
  let kernel = scenario.Scenario.kernel in
  (match
     Memfs.install_service scenario.Scenario.fs ~subject:(Kernel.admin_subject kernel)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install /svc/fs: %s" (Service.error_to_string e));
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "user hello" (hello conn user_creds).Wire.body;
  let seq = ref 1 in
  let op op =
    incr seq;
    (rpc conn (Wire.Op { seq = !seq; op })).Wire.body
  in
  let open_handle () = op (Wire.Open_handle { path = "/svc/fs/read" }) in
  let cap = 1_024 in
  let ids =
    List.init cap (fun i ->
        match open_handle () with
        | Wire.Value (Value.Int id) -> id
        | other -> Alcotest.failf "open_handle %d refused: %a" i Wire.pp_body other)
  in
  let live () = (Kernel.handle_stats kernel).Handle.hs_live in
  let live_at_cap = live () in
  (* At the cap: a typed refusal, not Busy (waiting frees no slot),
     and no kernel handle minted. *)
  for _ = 1 to 3 do
    match open_handle () with
    | Wire.Error (Wire.Quota_exceeded _) -> ()
    | other -> Alcotest.failf "open_handle past the cap answered %a" Wire.pp_body other
  done;
  Alcotest.(check int) "refusals mint nothing" live_at_cap (live ());
  (* The handles already open still serve. *)
  (match op (Wire.Call_handle { handle = List.hd ids; args = [ Value.str "user-data" ] }) with
  | Wire.Value (Value.Str _) -> ()
  | other -> Alcotest.failf "call_handle at the cap: %a" Wire.pp_body other);
  (* Closing a handle frees a slot. *)
  (match op (Wire.Close_handle { handle = List.hd ids }) with
  | Wire.Value (Value.Bool true) -> ()
  | other -> Alcotest.failf "close_handle: %a" Wire.pp_body other);
  (match open_handle () with
  | Wire.Value (Value.Int _) -> ()
  | other -> Alcotest.failf "open_handle after a close: %a" Wire.pp_body other);
  (match open_handle () with
  | Wire.Error (Wire.Quota_exceeded _) -> ()
  | other -> Alcotest.failf "slot reused twice: %a" Wire.pp_body other);
  conn.Transport.close ();
  Server.stop server;
  Alcotest.(check int) "disconnect closes every handle" (live_at_cap - cap) (live ());
  Alcotest.(check int) "serve.requests = serve.responses"
    (counter "serve.requests" - requests0)
    (counter "serve.responses" - responses0);
  Alcotest.(check int) "every op counted" (!seq - 1) (counter "serve.requests" - requests0);
  Metrics.set_enabled was_enabled

(* {1 A raising extension costs one typed error, not the connection}

   The session opens handles, then calls a proc that raises: the
   client gets [Ext_failure], the connection keeps serving, every
   request gets its response, and the disconnect closes every handle
   the session opened. *)

let test_raising_proc_served () =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  let counter name =
    match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with
    | Some v -> v
    | None -> 0
  in
  let requests0 = counter "serve.requests" in
  let responses0 = counter "serve.responses" in
  let scenario, endpoint, server = scenario_world () in
  let kernel = scenario.Scenario.kernel in
  let admin = Kernel.admin_subject kernel in
  (match
     Kernel.install_proc kernel ~subject:admin (Path.of_string "/svc/boom")
       ~meta:(Kernel.default_meta kernel ~owner:(Subject.principal admin) ())
       (Service.proc "boom" 0 (fun _ctx _args -> raise Not_found))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install /svc/boom: %s" (Service.error_to_string e));
  let live () = (Kernel.handle_stats kernel).Handle.hs_live in
  let live0 = live () in
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "user hello" (hello conn user_creds).Wire.body;
  let seq = ref 1 in
  let op op =
    incr seq;
    (rpc conn (Wire.Op { seq = !seq; op })).Wire.body
  in
  let ids =
    List.init 5 (fun i ->
        match op (Wire.Open_handle { path = "/svc/boom" }) with
        | Wire.Value (Value.Int id) -> id
        | other -> Alcotest.failf "open_handle %d: %a" i Wire.pp_body other)
  in
  Alcotest.(check int) "five handles live" (live0 + 5) (live ());
  (match op (Wire.Call { path = "/svc/boom"; args = [] }) with
  | Wire.Error (Wire.Ext_failure _) -> ()
  | other -> Alcotest.failf "raising call answered %a" Wire.pp_body other);
  (match op (Wire.Call_handle { handle = List.hd ids; args = [] }) with
  | Wire.Error (Wire.Ext_failure _) -> ()
  | other -> Alcotest.failf "raising handle call answered %a" Wire.pp_body other);
  (match op (Wire.Read { path = "/fs/user-data" }) with
  | Wire.Value (Value.Str _) -> ()
  | other -> Alcotest.failf "the connection stopped serving: %a" Wire.pp_body other);
  conn.Transport.close ();
  Server.stop server;
  Alcotest.(check int) "the disconnect closed every handle" live0 (live ());
  Alcotest.(check int) "serve.requests = serve.responses"
    (counter "serve.requests" - requests0)
    (counter "serve.responses" - responses0);
  Alcotest.(check int) "every op counted" (!seq - 1) (counter "serve.requests" - requests0);
  Metrics.set_enabled was_enabled

(* {1 Concurrent clients: exact conservation} *)

let test_concurrent_clients_conserve () =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  let snapshot_counter name =
    let snap = Metrics.snapshot () in
    match List.assoc_opt name snap.Metrics.counters with Some v -> v | None -> 0
  in
  let requests0 = snapshot_counter "serve.requests" in
  let responses0 = snapshot_counter "serve.responses" in
  let _, endpoint, server = scenario_world ~workers:4 () in
  let clients = 4 and requests_per_client = 200 in
  let spec =
    {
      Loadgen.clients;
      requests_per_client;
      credentials = (fun _ -> user_creds);
      op = (fun ~client:_ ~seq:_ -> Wire.Read { path = "/fs/user-data" });
    }
  in
  let outcome =
    match
      Loadgen.closed_loop ~connect:(fun () -> Transport.Loopback.connect endpoint) spec
    with
    | Ok outcome -> outcome
    | Error reason -> Alcotest.failf "loadgen: %s" reason
  in
  Server.stop server;
  let total = clients * requests_per_client in
  Alcotest.(check int) "every request sent" total outcome.Loadgen.sent;
  Alcotest.(check int) "every response a Value" total outcome.Loadgen.ok;
  Alcotest.(check int) "no Busy" 0 outcome.Loadgen.busy;
  Alcotest.(check int) "no errors" 0 outcome.Loadgen.errored;
  (* And the server counted the same conversation. *)
  Alcotest.(check int) "server saw every request" total
    (snapshot_counter "serve.requests" - requests0);
  Alcotest.(check int) "server answered every request" total
    (snapshot_counter "serve.responses" - responses0);
  Metrics.set_enabled was_enabled

(* {1 Concurrent appends: per-file lock conservation}

   Four clients hammer appends at the same Memfs file from four
   worker domains; the per-file mutex must make each append atomic,
   so every appended byte survives.  Before the lock, the
   read-modify-write [data <- data ^ chunk] silently lost chunks. *)

let test_concurrent_appends_conserve () =
  let scenario, endpoint, server = scenario_world ~workers:4 () in
  let clients = 4 and requests_per_client = 100 in
  let marker client = String.make 1 (Char.chr (Char.code 'A' + client)) in
  let spec =
    {
      Loadgen.clients;
      requests_per_client;
      credentials = (fun _ -> user_creds);
      op =
        (fun ~client ~seq:_ ->
          Wire.Write { path = "/fs/user-data"; data = marker client; append = true });
    }
  in
  let outcome =
    match
      Loadgen.closed_loop ~connect:(fun () -> Transport.Loopback.connect endpoint) spec
    with
    | Ok outcome -> outcome
    | Error reason -> Alcotest.failf "loadgen: %s" reason
  in
  Server.stop server;
  let total = clients * requests_per_client in
  Alcotest.(check int) "every append acknowledged" total outcome.Loadgen.ok;
  let data =
    match Memfs.read scenario.Scenario.fs ~subject:scenario.Scenario.user "user-data" with
    | Ok data -> data
    | Error e -> Alcotest.failf "read back: %s" (Service.error_to_string e)
  in
  let initial = "user-data contents" in
  Alcotest.(check int) "no appended byte lost"
    (String.length initial + total)
    (String.length data);
  for client = 0 to clients - 1 do
    let c = (marker client).[0] in
    let count = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 data in
    Alcotest.(check int)
      (Printf.sprintf "client %d appends all present" client)
      requests_per_client count
  done

(* {1 Stop closes idle connections}

   A client that authenticates and then goes quiet leaves a worker
   blocked in [recv]; [stop] must close the connection out from under
   it rather than wait forever on the join. *)

let test_stop_with_idle_connections () =
  (* Loopback. *)
  let _, endpoint, server = scenario_world ~workers:2 () in
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "loopback hello" (hello conn user_creds).Wire.body;
  Server.stop server;
  check "loopback client sees close" true (conn.Transport.recv () = None);
  conn.Transport.close ();
  (* Unix socket: the worker is blocked in read(2), which only a
     shutdown of the connection fd wakes. *)
  let scenario = Scenario.build () in
  let path = Filename.temp_file "exsec-serve-stop" ".sock" in
  Sys.remove path;
  let transport = Transport.Unix_socket.listen path in
  let server = Server.create ~workers:1 scenario.Scenario.kernel transport in
  Server.start server;
  let conn = Transport.Unix_socket.connect path in
  expect_hello_ok "socket hello" (hello conn user_creds).Wire.body;
  Server.stop server;
  check "socket client sees close" true (conn.Transport.recv () = None);
  conn.Transport.close ()

(* {1 The Unix-domain socket transport} *)

let test_unix_socket_roundtrip () =
  let scenario = Scenario.build () in
  let path = Filename.temp_file "exsec-serve" ".sock" in
  Sys.remove path;
  let transport = Transport.Unix_socket.listen path in
  let server = Server.create ~workers:1 scenario.Scenario.kernel transport in
  Server.start server;
  let conn = Transport.Unix_socket.connect path in
  expect_hello_ok "hello over the socket" (hello conn user_creds).Wire.body;
  (match (rpc conn (Wire.Op { seq = 2; op = Wire.Read { path = "/fs/user-data" } })).Wire.body with
  | Wire.Value (Value.Str data) ->
    Alcotest.(check string) "data" "user-data contents" data
  | other -> Alcotest.failf "read over the socket: %a" Wire.pp_body other);
  conn.Transport.close ();
  Server.stop server;
  check "socket unlinked" false (Sys.file_exists path)

(* {1 A deep path over the wire}

   A served [Resolve] of a 100,000-segment path answers a typed error
   (the name is missing below [/fs]) and the connection keeps
   serving. *)

let test_deep_resolve_served () =
  let _, endpoint, server = scenario_world () in
  let conn = Transport.Loopback.connect endpoint in
  expect_hello_ok "user hello" (hello conn user_creds).Wire.body;
  let deep = "/fs/" ^ String.concat "/" (List.init 100_000 (fun _ -> "x")) in
  (match (rpc conn (Wire.Op { seq = 2; op = Wire.Resolve { path = deep; mode = "read" } })).Wire.body with
  | Wire.Error (Wire.Unresolved _) -> ()
  | other ->
    let text = Format.asprintf "%a" Wire.pp_body other in
    Alcotest.failf "deep resolve answered %s" (String.sub text 0 (min 200 (String.length text))));
  (match (rpc conn (Wire.Op { seq = 3; op = Wire.Read { path = "/fs/user-data" } })).Wire.body with
  | Wire.Value (Value.Str _) -> ()
  | other -> Alcotest.failf "the connection stopped serving: %a" Wire.pp_body other);
  conn.Transport.close ();
  Server.stop server

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire hostile bytes" `Quick test_wire_hostile_bytes;
    Alcotest.test_case "wire nesting cap" `Quick test_wire_nesting_cap;
    Alcotest.test_case "chan ping-pong" `Quick test_chan_ping_pong;
    Alcotest.test_case "chan mpmc" `Quick test_chan_mpmc;
    Alcotest.test_case "chan close" `Quick test_chan_close;
    Alcotest.test_case "auth unknown principal" `Quick test_auth_unknown_principal;
    Alcotest.test_case "auth registry secret" `Quick test_auth_registry_secret;
    Alcotest.test_case "op before hello" `Quick test_op_before_hello;
    Alcotest.test_case "denial mapping" `Quick test_denial_mapping;
    Alcotest.test_case "denial text" `Quick test_denial_text;
    Alcotest.test_case "quota backpressure" `Quick test_quota_backpressure;
    Alcotest.test_case "handles connection-scoped" `Quick test_handles_scoped_to_connection;
    Alcotest.test_case "handle table capped" `Quick test_handle_table_capped;
    Alcotest.test_case "raising proc served" `Quick test_raising_proc_served;
    Alcotest.test_case "concurrent clients conserve" `Quick test_concurrent_clients_conserve;
    Alcotest.test_case "concurrent appends conserve" `Quick test_concurrent_appends_conserve;
    Alcotest.test_case "stop closes idle connections" `Quick test_stop_with_idle_connections;
    Alcotest.test_case "unix socket roundtrip" `Quick test_unix_socket_roundtrip;
    Alcotest.test_case "a 100,000-segment resolve served" `Quick test_deep_resolve_served;
  ]
