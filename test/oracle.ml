(* The reference oracle: every access route held to the interpreted
   monitor, on one kernel, under one generated op script.

   The reference is a set of pure functions over live state: the
   principal database's member lists, each node's metadata, the policy
   in force and the world's table of published procedures.  It uses no
   compiled ACL, memo, certificate or handle.
   - [decide] is the ACL walk over live membership, then the lattice
     rule at the effective class (a trusted subject's writes exempt),
     then Biba.
   - [resolve] checks [List] on every interior node, root first, then
     the requested mode on the target, and builds its refusals the way
     [Service.error_of_denial] does.
   - [call] resolves for [Execute] and evaluates the procedure table:
     a constant, or a forward to another path under the same subject
     (what the relay and fetch provides do).

   The world is one kernel with a clearance registry: procedures at
   three classes, a staff-gated /svc/get, five extensions linked by
   alice (a relay chain, a pinned caller with chain handles, a profiled
   certificate and a delegated one), nested and uncovered groups, a
   group an ACL variant names before it registers, and subjects at and
   below each clearance, trusted, ceilinged and unregistered.  After
   every op of the script each route answers each probe, and:
   - every answer equals the reference's;
   - a [Denied] answer raises the kernel's denied-audit total;
   - a checked call writes exactly one audit record per reference
     decision, so a fast route that wrote fewer served the probe
     itself (counted per route, and each route must serve some).

   The routes: [Kernel.call], [Kernel.call_handle] (opened on demand),
   [Linked.call] (proved import handles), [Linked.call_import],
   [Linked.call_chain], and [Call] and [Call_handle] served over
   [Transport.Loopback].  The oracle runs with metrics and tracing off;
   the agreement suite holds the observed paths to the bare ones. *)

open Exsec_core
open Exsec_extsys
module Certificate = Exsec_analysis.Certificate
module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace
module Wire = Exsec_serve.Wire
module Transport = Exsec_serve.Transport
module Server = Exsec_serve.Server

(* {1 The reference} *)

(* The decision, and the MAC layer's own verdict when that layer ran
   (it is on and DAC did not deny).  [effective] defaults to the
   subject's effective class. *)
let decide ?effective (policy : Policy.t) ~db subject (meta : Meta.t) mode =
  let effective =
    match effective with
    | Some klass -> klass
    | None -> Subject.effective_class subject
  in
  let exempt = Subject.is_trusted subject && Access_mode.is_write_like mode in
  let dac =
    if not policy.dac then Ok ()
    else
      match Acl.check ~db ~subject:(Subject.principal subject) ~mode meta.acl with
      | Acl.Granted _ -> Ok ()
      | Acl.Denied_by who -> Error (Decision.Dac_explicit_deny who)
      | Acl.No_entry -> Error Decision.Dac_no_entry
  in
  match dac with
  | Error denial -> Decision.Denied denial, None
  | Ok () -> (
    let mac =
      if not policy.mac then None
      else if exempt then Some (Ok ())
      else Some (Mac.check ~rule:policy.overwrite ~subject:effective ~object_:meta.klass mode)
    in
    match mac with
    | Some (Error denial) -> Decision.Denied (Decision.Mac_denied denial), Some false
    | Some (Ok ()) | None -> (
      let layer = Option.map (fun _ -> true) mac in
      match Subject.integrity subject, meta.integrity with
      | Some s, Some o when policy.integrity && not exempt -> (
        match Integrity.check ~subject:s ~object_:o mode with
        | Ok () -> Decision.Granted, layer
        | Error denial -> Decision.Denied (Decision.Integrity_denied denial), layer)
      | (None | Some _), _ -> Decision.Granted, layer))

type proc =
  | Const of Value.t
  | Forward of Path.t  (* call this path under the same subject *)

type spec = {
  policy : Policy.t;
  db : Principal.Db.t;
  namespace : Kernel.entry Namespace.t;
  procs : (string, proc) Hashtbl.t;  (* by path *)
}

(* [decisions] counts every decision the reference makes. *)
let resolve spec ~decisions subject mode path =
  let check node mode =
    incr decisions;
    match fst (decide spec.policy ~db:spec.db subject (Namespace.meta node) mode) with
    | Decision.Granted -> Ok ()
    | Decision.Denied denial ->
      Error (Service.Denied { at = Path.to_string (Namespace.path node); mode; denial })
  in
  let rec walk node = function
    | [] -> Result.map (fun () -> node) (check node mode)
    | segment :: rest -> (
      match check node Access_mode.List with
      | Error e -> Error e
      | Ok () -> (
        match Namespace.child node segment with
        | child -> walk child rest
        | exception Not_found ->
          let error =
            if Namespace.is_dir node then Namespace.Not_found path
            else Namespace.Not_a_directory (Namespace.path node)
          in
          Error (Service.Unresolved (Format.asprintf "%a" Namespace.pp_error error))))
  in
  walk (Namespace.root spec.namespace) (Path.segments path)

type answer = {
  result : (Value.t, Service.error) result;
  decisions : int;  (* one audit record each on the checked path *)
}

let call spec subject path =
  let decisions = ref 0 in
  let rec go path =
    match resolve spec ~decisions subject Access_mode.Execute path with
    | Error e -> Error e
    | Ok _ -> (
      match Hashtbl.find_opt spec.procs (Path.to_string path) with
      | Some (Const value) -> Ok value
      | Some (Forward next) -> go next
      | None -> Error (Service.Unresolved (Path.to_string path ^ ": not callable")))
  in
  let result = go path in
  { result; decisions = !decisions }

(* The reference's answer as a served request sees it. *)
let wire_of = function
  | Ok value -> Wire.Value value
  | Error (Service.Quota_exceeded why) -> Wire.Busy why
  | Error e -> Wire.Error (Wire.error_of_service e)

(* {1 The world} *)

let admin = Principal.individual "admin"
let alice = Principal.individual "alice"
let bob = Principal.individual "bob"
let carol = Principal.individual "carol"
let mallory = Principal.individual "mallory"  (* registered by churn, never cleared *)
let people = [| alice; bob; carol; mallory |]
let staff = Principal.group "staff"
let eng = Principal.group "eng"  (* nested in staff *)
let visitors = Principal.group "visitors"  (* holds no covered principal *)
let late = Principal.group "late"  (* an ACL variant names it; unregistered at boot *)
let groups = [| staff; eng; visitors |]
let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ]
let universe = Category.universe [ "d1"; "d2" ]

let classes =
  [|
    Security_class.bottom hierarchy universe;
    Security_class.make
      (Level.of_name_exn hierarchy "organization")
      (Category.of_names universe [ "d1" ]);
    Security_class.top hierarchy universe;
  |]

let class_names = [| "bottom"; "middle"; "top" |]
let bottom = classes.(0)
let middle = classes.(1)
let top = classes.(2)

(* The call targets: three procedures at three classes, the
   staff-gated get, and the two provider procedures above it.  Only
   the first four are republished. *)
let targets =
  Array.map Path.of_string
    [| "/svc/obj0"; "/svc/obj1"; "/svc/obj2"; "/svc/get"; "/ext/relay/fetch"; "/ext/a/relay" |]

let get = targets.(3)
let fetch = targets.(4)
let relay = targets.(5)
let republishable = 4

(* What an edit may touch: every target and two interior nodes. *)
let nodes = Array.append targets (Array.map Path.of_string [| "/svc"; "/ext/relay" |])

let everyone modes = Acl.allow Acl.Everyone modes
let lx = [ Access_mode.List; Access_mode.Execute ]

let acl_variants =
  [|
    "everyone", Acl.of_entries [ everyone lx ];
    "staff only", Acl.of_entries [ Acl.allow (Acl.Group staff) lx; everyone [ Access_mode.List ] ];
    "deny bob",
    Acl.of_entries [ Acl.deny (Acl.Individual bob) [ Access_mode.Execute ]; everyone lx ];
    "alice only", Acl.of_entries [ Acl.allow (Acl.Individual alice) lx ];
    (* no List: on an interior node every walk through it is refused *)
    "execute only", Acl.of_entries [ everyone [ Access_mode.Execute ] ];
    "list only", Acl.of_entries [ everyone [ Access_mode.List ] ];
    (* every cleared principal may call, so proofs hold; only the
       never-cleared mallory is denied *)
    "deny mallory",
    Acl.of_entries [ Acl.deny (Acl.Individual mallory) [ Access_mode.Execute ]; everyone lx ];
    "deny late", Acl.of_entries [ Acl.deny (Acl.Group late) [ Access_mode.Execute ]; everyone lx ];
    "late only", Acl.of_entries [ Acl.allow (Acl.Group late) lx; everyone [ Access_mode.List ] ];
  |]

let policies = Array.of_list Exsec_workload.Opstream.policies
let prefixes = Array.map Path.of_string [| "/ext/relay"; "/svc" |]

let profile =
  Certificate.make_profile ~name:"oracle" ~prefixes:[ Path.root ] ~max_depth:3 ~validity:2 ()

(* Each subject, and how it logs in over the wire when it can (a
   registered principal, at a class at most its clearance). *)
type subject = {
  name : string;
  subject : Subject.t;
  login : (Principal.individual * Security_class.t) option;
}

let subject_names =
  [|
    "admin@top"; "admin@middle"; "alice@middle"; "alice@bottom"; "bob@bottom"; "carol@top";
    "carol@middle"; "carol@top<=middle"; "mallory@bottom";
  |]

let servable = 7  (* the first seven log in *)

type ext = {
  linked : Linker.Linked.t;
  linker : int;  (* the subject that linked it: alice, at bottom or middle *)
  cap : Security_class.t option;  (* the extension's static class *)
  proves : Path.t list;  (* the imports and chain targets its certificate proves *)
  profile : Certificate.profile option;
}

(* One served connection.  The server runs one worker, which serves
   one connection at a time, so a case holds at most one session. *)
type session = {
  index : int;  (* the subject *)
  conn : Transport.conn;
  wire_handles : (int, int) Hashtbl.t;  (* target -> connection-scoped handle id *)
  mutable seq : int;
}

type world = {
  kernel : Kernel.t;
  db : Principal.Db.t;
  registry : Clearance.t;
  subjects : subject array;
  exts : ext array;
  procs : (string, proc) Hashtbl.t;
  metas : Meta.t array;  (* the republishable targets' latest metadata *)
  mutable policy : Policy.t;
  handles : (int * int, Handle.h) Hashtbl.t;  (* (subject, target), opened on demand *)
  mutable fresh : int;  (* individuals registered by churn *)
  mutable values : int;  (* republished values handed out *)
  mutable server : (Transport.Loopback.endpoint * Server.t) option;
  mutable session : session option;
}

(* front/worker's certificate, delegated from front's. *)
let delegate_worker kernel =
  Kernel.delegate_certificate kernel ~parent:"front" ~extension:"front/worker" ~imports:[ get ] ()

let build () =
  let db = Principal.Db.create () in
  List.iter (Principal.Db.add_individual db) [ admin; alice; bob; carol ];
  Principal.Db.add_member db staff (Principal.Grp eng);
  Principal.Db.add_member db eng (Principal.Ind alice);
  Principal.Db.add_member db staff (Principal.Ind bob);
  Principal.Db.add_member db staff (Principal.Ind carol);
  Principal.Db.add_group db visitors;
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin top;
  Clearance.register registry ~integrity:middle alice middle;
  Clearance.register registry bob bottom;
  Clearance.register registry carol top;
  let kernel = Kernel.boot ~registry ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let procs = Hashtbl.create 8 in
  let publish i acl klass value =
    let acl = Acl.of_entries (Acl.allow_all (Acl.Individual admin) :: acl) in
    let meta = Meta.make ~owner:admin ~acl klass in
    (match
       Kernel.install_proc kernel ~subject:admin_sub targets.(i) ~meta
         (Service.proc "target" 0 (Service.const value))
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "oracle world: publish: %s" (Service.error_to_string e));
    Hashtbl.replace procs (Path.to_string targets.(i)) (Const value);
    meta
  in
  let boot =
    [|
      [ everyone lx ], bottom, 0;
      (* late is unregistered at boot, so this form compiles it away
         until late registers *)
      [ Acl.deny (Acl.Group late) [ Access_mode.Execute ]; everyone lx ], middle, 1;
      [ everyone lx ], top, 2;
      [ Acl.allow (Acl.Group staff) lx; everyone [ Access_mode.List ] ], bottom, 7;
    |]
  in
  let metas =
    Array.mapi (fun i (acl, klass, value) -> publish i acl klass (Value.int value)) boot
  in
  let login ?at who =
    match Clearance.login registry ?at who with
    | Ok subject -> subject
    | Error e -> Alcotest.failf "oracle world: login: %a" Clearance.pp_error e
  in
  let served i who klass =
    { name = subject_names.(i); subject = login ~at:klass who; login = Some (who, klass) }
  in
  let unserved i subject = { name = subject_names.(i); subject; login = None } in
  let subjects =
    [|
      served 0 admin top;
      served 1 admin middle;
      served 2 alice middle;
      served 3 alice bottom;
      served 4 bob bottom;
      served 5 carol top;
      served 6 carol middle;
      unserved 7 (Subject.with_ceiling (login carol) middle);
      unserved 8 (Subject.make ~integrity:middle mallory bottom);
    |]
  in
  let link ?static_class ?profile ?(provides = []) ~by name imports ~proves =
    let extension = Extension.make ~name ~author:alice ?static_class ~imports ~provides () in
    match Linker.link ?profile kernel ~subject:subjects.(by).subject extension with
    | Ok linked -> { linked; linker = by; cap = static_class; proves; profile }
    | Error e -> Alcotest.failf "oracle world: link %s: %a" name Linker.pp_link_error e
  in
  let forward path = fun ctx _args -> ctx.Service.call path [] in
  (* Linked in order, each import already published.  A provider's
     procedures take its linker's class: fetch is bottom, relay middle,
     so bob, cleared bottom, reaches fetch but not relay, and c's proof
     of relay holds only under a policy without MAC. *)
  let relay_ext =
    link ~by:3 "relay" [ get ] ~proves:[ get ]
      ~provides:[ Extension.provided "fetch" 0 (forward get) ]
  in
  let a =
    link ~by:2 "a" [ fetch ] ~proves:[ fetch; get ]
      ~provides:[ Extension.provided "relay" 0 (forward fetch) ]
  in
  (* pinned: its callers are capped, and it holds chain handles on
     fetch and get *)
  let c = link ~by:2 ~static_class:middle "c" [ relay ] ~proves:[ relay; fetch; get ] in
  let front = link ~by:3 ~profile "front" [ fetch ] ~proves:[ fetch; get ] in
  let worker = link ~by:3 ~profile "front/worker" [ get ] ~proves:[ get ] in
  let exts = [| relay_ext; a; c; front; worker |] in
  Hashtbl.replace procs (Path.to_string fetch) (Forward get);
  Hashtbl.replace procs (Path.to_string relay) (Forward fetch);
  (match delegate_worker kernel with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "oracle world: delegate: %s" e);
  {
    kernel; db; registry; subjects; exts; procs; metas; policy = Policy.default;
    handles = Hashtbl.create 64; fresh = 0; values = 100; server = None; session = None;
  }

let spec (w : world) : spec =
  { policy = w.policy; db = w.db; namespace = Kernel.namespace w.kernel; procs = w.procs }

let cap (ext : ext) subject =
  match ext.cap with
  | None -> subject
  | Some klass -> Subject.with_ceiling subject klass

(* {1 The op script} *)

type edit =
  | Join of { group : int; member : int }
  | Leave of { group : int; member : int }
  | Nest  (* eng into staff *)
  | Unnest
  | Register of { group : int }  (* mallory first, then fresh individuals *)
  | Guest of { guest : int; join : bool }  (* visitors churn *)
  | Register_late of { member : int }  (* the ACL-named group registers *)

type op =
  | Edit of edit
  | Batch of edit list  (* one [Principal.Db.batch] *)
  | Set_acl of { node : int; acl : int }
  | Set_policy of int
  | Relabel of { node : int; klass : int }
  | Label of { node : int; integrity : int option }
  | Republish of int  (* remove a target, publish a new value there *)
  | Close of { subject : int; target : int }
  | Recertify
  | Tick  (* advance the certificate epoch *)
  | Revoke_principal of int
  | Revoke_prefix of int
  | Connect of int  (* a served session for a subject, replacing the last *)

let edit_to_string = function
  | Join { group; member } ->
    Printf.sprintf "join(%s, %s)" (Principal.group_name groups.(group))
      (Principal.individual_name people.(member))
  | Leave { group; member } ->
    Printf.sprintf "leave(%s, %s)" (Principal.group_name groups.(group))
      (Principal.individual_name people.(member))
  | Nest -> "nest(eng in staff)"
  | Unnest -> "unnest(eng from staff)"
  | Register { group } -> Printf.sprintf "register(into %s)" (Principal.group_name groups.(group))
  | Guest { guest; join } -> Printf.sprintf "guest-%s(%d)" (if join then "join" else "leave") guest
  | Register_late { member } ->
    Printf.sprintf "register-late(with %s)" (Principal.individual_name people.(member))

let op_to_string = function
  | Edit edit -> edit_to_string edit
  | Batch edits -> "batch[" ^ String.concat "; " (List.map edit_to_string edits) ^ "]"
  | Set_acl { node; acl } ->
    Printf.sprintf "set-acl(%s, %s)" (Path.to_string nodes.(node)) (fst acl_variants.(acl))
  | Set_policy i -> Format.asprintf "policy(%a)" Policy.pp policies.(i)
  | Relabel { node; klass } ->
    Printf.sprintf "relabel(%s, %s)" (Path.to_string nodes.(node)) class_names.(klass)
  | Label { node; integrity } ->
    Printf.sprintf "integrity(%s, %s)" (Path.to_string nodes.(node))
      (match integrity with Some k -> class_names.(k) | None -> "none")
  | Republish i -> Printf.sprintf "republish(%s)" (Path.to_string targets.(i))
  | Close { subject; target } ->
    Printf.sprintf "close(%s, %s)" subject_names.(subject) (Path.to_string targets.(target))
  | Recertify -> "recertify"
  | Tick -> "tick"
  | Revoke_principal i ->
    Printf.sprintf "revoke-principal(%s)" (Principal.individual_name people.(i))
  | Revoke_prefix i -> Printf.sprintf "revoke-prefix(%s)" (Path.to_string prefixes.(i))
  | Connect s -> Printf.sprintf "connect(%s)" subject_names.(s)

(* The kind of each op, for the coverage check. *)
let edit_kind = function
  | Join _ -> "join"
  | Leave _ -> "leave"
  | Nest -> "nest"
  | Unnest -> "unnest"
  | Register _ -> "register"
  | Guest _ -> "guest"
  | Register_late _ -> "register-late"

let kinds =
  [
    "join"; "leave"; "nest"; "unnest"; "register"; "guest"; "register-late"; "batch"; "set-acl";
    "policy"; "relabel"; "integrity"; "republish"; "close"; "recertify"; "tick";
    "revoke-principal"; "revoke-prefix"; "connect";
  ]

let op_kinds = function
  | Edit edit -> [ edit_kind edit ]
  | Batch edits -> "batch" :: List.map edit_kind edits
  | Set_acl _ -> [ "set-acl" ]
  | Set_policy _ -> [ "policy" ]
  | Relabel _ -> [ "relabel" ]
  | Label _ -> [ "integrity" ]
  | Republish _ -> [ "republish" ]
  | Close _ -> [ "close" ]
  | Recertify -> [ "recertify" ]
  | Tick -> [ "tick" ]
  | Revoke_principal _ -> [ "revoke-principal" ]
  | Revoke_prefix _ -> [ "revoke-prefix" ]
  | Connect _ -> [ "connect" ]

let gen_edit =
  QCheck.Gen.(
    frequency
      [
        3, map2 (fun group member -> Join { group; member }) (int_bound 2) (int_bound 3);
        3, map2 (fun group member -> Leave { group; member }) (int_bound 2) (int_bound 3);
        1, return Nest;
        1, return Unnest;
        1, map (fun group -> Register { group }) (int_bound 2);
        1, map2 (fun guest join -> Guest { guest; join }) (int_bound 6) bool;
        1, map (fun member -> Register_late { member }) (int_bound 3);
      ])

let gen_op =
  let index a = QCheck.Gen.int_bound (Array.length a - 1) in
  QCheck.Gen.(
    frequency
      [
        4, map2 (fun node acl -> Set_acl { node; acl }) (index nodes) (index acl_variants);
        6, map (fun edit -> Edit edit) gen_edit;
        1, map (fun edits -> Batch edits) (list_size (int_range 2 4) gen_edit);
        4, map (fun i -> Set_policy i) (index policies);
        2, map2 (fun node klass -> Relabel { node; klass }) (index nodes) (index classes);
        ( 1,
          map2
            (fun node integrity -> Label { node; integrity })
            (index nodes) (opt (index classes)) );
        2, map (fun i -> Republish i) (int_bound (republishable - 1));
        ( 1,
          map2
            (fun subject target -> Close { subject; target })
            (index subject_names) (index targets) );
        4, return Recertify;
        1, return Tick;
        1, map (fun i -> Revoke_principal i) (index people);
        1, map (fun i -> Revoke_prefix i) (index prefixes);
        1, map (fun s -> Connect s) (int_bound (servable - 1));
      ])

let arb_script =
  QCheck.make
    ~print:(fun script -> "[" ^ String.concat "; " (List.map op_to_string script) ^ "]")
    ~shrink:(fun script -> QCheck.Shrink.list script)
    QCheck.Gen.(list_size (int_bound 24) gen_op)

(* {1 Applying an op} *)

let publish_meta w i next =
  let ns = Kernel.namespace w.kernel in
  match Namespace.find ns nodes.(i) with
  | Ok node ->
    Namespace.publish ns node next;
    if i < republishable then w.metas.(i) <- Namespace.meta node
  | Error _ -> ()

let ignore_invalid f = try f () with Invalid_argument _ -> ()

let apply_edit w = function
  | Join { group; member } ->
    ignore_invalid (fun () ->
        Principal.Db.add_member w.db groups.(group) (Principal.Ind people.(member)))
  | Leave { group; member } ->
    ignore_invalid (fun () ->
        Principal.Db.remove_member w.db groups.(group) (Principal.Ind people.(member)))
  | Nest -> ignore_invalid (fun () -> Principal.Db.add_member w.db staff (Principal.Grp eng))
  | Unnest -> ignore_invalid (fun () -> Principal.Db.remove_member w.db staff (Principal.Grp eng))
  | Register { group } ->
    let fresh =
      if not (Principal.Db.mem_individual w.db mallory) then mallory
      else begin
        w.fresh <- w.fresh + 1;
        Principal.individual (Printf.sprintf "new%d" w.fresh)
      end
    in
    Principal.Db.add_member w.db groups.(group) (Principal.Ind fresh)
  | Guest { guest; join } ->
    let member = Principal.Ind (Principal.individual (Printf.sprintf "guest-%d" guest)) in
    ignore_invalid (fun () ->
        if join then Principal.Db.add_member w.db visitors member
        else Principal.Db.remove_member w.db visitors member)
  | Register_late { member } -> Principal.Db.add_member w.db late (Principal.Ind people.(member))

let recertify w =
  let kernel = w.kernel in
  Array.iter
    (fun ext ->
      let name = Linker.Linked.name ext.linked in
      if not (String.equal name "front/worker") then
        Kernel.note_certificate kernel
          (Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry:w.registry
             ~namespace:(Kernel.namespace kernel) ?static_class:ext.cap ?profile:ext.profile
             ~now:(Kernel.cert_epoch kernel) ~extension:name ~imports:ext.proves ()))
    w.exts;
  match delegate_worker kernel with
  | Ok _ -> ()
  | Error _ ->
    (* the parent does not qualify now: no stale child lingers *)
    Kernel.revoke_certificate kernel "front/worker"

(* Remove the target and publish a new value under a copy of its
   metadata: every handle and proof pinned to the old node must re-resolve. *)
let republish w i =
  let ns = Kernel.namespace w.kernel in
  let path = targets.(i) in
  (match Namespace.remove ns path with Ok () | Error _ -> ());
  let meta = Meta.copy w.metas.(i) in
  w.values <- w.values + 1;
  let value = Value.int w.values in
  let proc = Kernel.Proc (Service.proc "target" 0 (Service.const value)) in
  (match Namespace.add_leaf ns path ~meta proc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "oracle world: republish: %a" Namespace.pp_error e);
  w.metas.(i) <- meta;
  Hashtbl.replace w.procs (Path.to_string path) (Const value)

let show_result = function
  | Ok value -> Format.asprintf "%a" Value.pp value
  | Error e -> Service.error_to_string e

(* {2 The served session} *)

let rpc session request =
  session.seq <- session.seq + 1;
  let seq = session.seq in
  session.conn.Transport.send (Wire.encode_request (request seq));
  match session.conn.Transport.recv () with
  | None -> QCheck.Test.fail_report "the server closed the connection"
  | Some frame -> (
    match Wire.decode_response frame with
    | Ok { Wire.seq = echoed; body } when echoed = seq -> body
    | Ok _ -> QCheck.Test.fail_report "the response did not echo its sequence number"
    | Error why -> QCheck.Test.fail_reportf "undecodable response: %s" why)

let disconnect w =
  Option.iter (fun session -> session.conn.Transport.close ()) w.session;
  w.session <- None

let connect w s =
  disconnect w;
  match w.subjects.(s).login with
  | None -> ()
  | Some (who, klass) ->
    let endpoint =
      match w.server with
      | Some (endpoint, _) -> endpoint
      | None ->
        let endpoint = Transport.Loopback.create () in
        let server = Server.create ~workers:1 w.kernel (Transport.Loopback.transport endpoint) in
        Server.start server;
        w.server <- Some (endpoint, server);
        endpoint
    in
    let session =
      {
        index = s;
        conn = Transport.Loopback.connect endpoint;
        wire_handles = Hashtbl.create 8;
        seq = 0;
      }
    in
    w.session <- Some session;
    let creds =
      {
        Wire.principal = Principal.individual_name who;
        secret = None;
        level = Some (Level.name (Security_class.level klass));
        categories = Category.names (Security_class.categories klass);
      }
    in
    match rpc session (fun seq -> Wire.Hello { seq; creds }) with
    | Wire.Hello_ok _ -> ()
    | body -> QCheck.Test.fail_reportf "hello as %s: %a" w.subjects.(s).name Wire.pp_body body

let shutdown w =
  disconnect w;
  Option.iter (fun (_, server) -> Server.stop server) w.server;
  w.server <- None

let apply w = function
  | Edit edit -> apply_edit w edit
  | Batch edits -> Kernel.batch_principals w.kernel (fun () -> List.iter (apply_edit w) edits)
  | Set_acl { node; acl } ->
    publish_meta w node (fun meta -> Meta.with_acl meta (snd acl_variants.(acl)))
  | Set_policy i ->
    w.policy <- policies.(i);
    Reference_monitor.set_policy (Kernel.monitor w.kernel) w.policy
  | Relabel { node; klass } ->
    publish_meta w node (fun meta -> Meta.with_klass meta classes.(klass))
  | Label { node; integrity } ->
    publish_meta w node (fun meta ->
        Meta.with_integrity meta (Option.map (fun k -> classes.(k)) integrity))
  | Republish i -> republish w i
  | Close { subject; target } -> (
    match Hashtbl.find_opt w.handles (subject, target) with
    | None -> ()
    | Some h -> (
      Hashtbl.remove w.handles (subject, target);
      ignore (Kernel.close_handle w.kernel h);
      (* A closed handle never grants and never answers for another
         target: its one answer is the use-after-close denial. *)
      match Kernel.call_handle w.kernel h [] with
      | Error (Service.Denied { denial = Decision.Not_an_object; _ }) -> ()
      | result -> QCheck.Test.fail_reportf "a closed handle answered %s" (show_result result)))
  | Recertify -> recertify w
  | Tick -> ignore (Kernel.advance_cert_epoch w.kernel)
  | Revoke_principal i -> ignore (Kernel.revoke_by_principal w.kernel people.(i))
  | Revoke_prefix i -> ignore (Kernel.revoke_by_prefix w.kernel prefixes.(i))
  | Connect s -> connect w s

(* {1 Probes} *)

type route =
  | Checked  (* Kernel.call *)
  | Handle  (* Kernel.call_handle, Linked.call_import *)
  | Proved  (* Linked.call *)
  | Chain  (* Linked.call_chain *)
  | Served_call
  | Served_handle

let route_name = function
  | Checked -> "Kernel.call"
  | Handle -> "handle"
  | Proved -> "Linked.call"
  | Chain -> "Linked.call_chain"
  | Served_call -> "served Call"
  | Served_handle -> "served Call_handle"

let routes = [ Checked; Handle; Proved; Chain; Served_call; Served_handle ]

type tally = {
  probes : (route, int) Hashtbl.t;  (* probes each route answered *)
  fast : (route, int) Hashtbl.t;  (* probes a fast route served itself *)
  seen : (string, int) Hashtbl.t;  (* op kinds generated *)
}

let tally = { probes = Hashtbl.create 8; fast = Hashtbl.create 8; seen = Hashtbl.create 32 }

let count table key = Option.value ~default:0 (Hashtbl.find_opt table key)
let bump table key = Hashtbl.replace table key (1 + count table key)

let probe w route ~who path (expected : answer) ~show ~denied ~answer run =
  let audit = Reference_monitor.audit (Kernel.monitor w.kernel) in
  let total0 = Audit.total audit and denied0 = Audit.denied_total audit in
  let got = run () in
  let records = Audit.total audit - total0 in
  bump tally.probes route;
  let want = answer expected.result in
  if got <> want then
    QCheck.Test.fail_reportf "%s by %s on %s answered %s; the reference %s" (route_name route) who
      (Path.to_string path) (show got) (show want);
  if denied got && Audit.denied_total audit <= denied0 then
    QCheck.Test.fail_reportf "%s by %s on %s denied without an audited denial" (route_name route)
      who (Path.to_string path);
  match route with
  | Checked | Served_call ->
    if records <> expected.decisions then
      QCheck.Test.fail_reportf "%s by %s on %s wrote %d audit records for %d decisions"
        (route_name route) who (Path.to_string path) records expected.decisions
  | Handle | Proved | Chain | Served_handle ->
    if records < expected.decisions then bump tally.fast route

let probe_result w route ~who path expected run =
  probe w route ~who path expected ~show:show_result ~answer:Fun.id run ~denied:(function
    | Error (Service.Denied _) -> true
    | Ok _ | Error _ -> false)

let probe_served w route ~who path expected run =
  probe w route ~who path expected ~show:(Format.asprintf "%a" Wire.pp_body) ~answer:wire_of run
    ~denied:(function
      | Wire.Error (Wire.Denied _) -> true
      | Wire.Hello_ok _ | Wire.Value _ | Wire.Error _ | Wire.Busy _ -> false)

let handle_call w s t =
  let path = targets.(t) in
  match Hashtbl.find_opt w.handles (s, t) with
  | Some h -> Kernel.call_handle w.kernel h []
  | None -> (
    match Kernel.open_handle w.kernel ~subject:w.subjects.(s).subject ~caller:"oracle" path with
    | Error e -> Error e
    | Ok h ->
      Hashtbl.replace w.handles (s, t) h;
      Kernel.call_handle w.kernel h [])

let served_handle_call session t =
  let path = Path.to_string targets.(t) in
  let call id =
    rpc session (fun seq -> Wire.Op { seq; op = Wire.Call_handle { handle = id; args = [] } })
  in
  match Hashtbl.find_opt session.wire_handles t with
  | Some id -> call id
  | None -> (
    match rpc session (fun seq -> Wire.Op { seq; op = Wire.Open_handle { path } }) with
    | Wire.Value (Value.Int id) ->
      Hashtbl.replace session.wire_handles t id;
      call id
    | refused -> refused)

(* Every route, every subject, every target the route reaches. *)
let sweep w =
  let spec = spec w in
  let expected = Array.map (fun s -> Array.map (call spec s.subject) targets) w.subjects in
  Array.iteri
    (fun s { name = who; subject; _ } ->
      Array.iteri
        (fun t path ->
          let e = expected.(s).(t) in
          probe_result w Checked ~who path e (fun () ->
              Kernel.call w.kernel ~subject ~caller:"oracle" path []);
          probe_result w Handle ~who path e (fun () -> handle_call w s t))
        targets)
    w.subjects;
  Array.iter
    (fun ext ->
      let linked = ext.linked in
      let link_subject = cap ext w.subjects.(ext.linker).subject in
      let who = Linker.Linked.name linked in
      List.iter
        (fun path ->
          Array.iter
            (fun { name; subject; _ } ->
              probe_result w Proved ~who:(who ^ " for " ^ name) path
                (call spec (cap ext subject) path)
                (fun () -> Linker.Linked.call linked ~subject path []))
            w.subjects;
          probe_result w Handle ~who path (call spec link_subject path) (fun () ->
              Linker.Linked.call_import linked path []))
        (Linker.Linked.imports linked);
      List.iter
        (fun path ->
          probe_result w Chain ~who path (call spec link_subject path) (fun () ->
              Linker.Linked.call_chain linked path []))
        (Linker.Linked.chain_imports linked))
    w.exts;
  Option.iter
    (fun session ->
      let who = w.subjects.(session.index).name in
      Array.iteri
        (fun t path ->
          let e = expected.(session.index).(t) in
          probe_served w Served_call ~who path e (fun () ->
              rpc session (fun seq ->
                  Wire.Op { seq; op = Wire.Call { path = Path.to_string path; args = [] } }));
          probe_served w Served_handle ~who path e (fun () -> served_handle_call session t))
        targets)
    w.session

let prop_oracle =
  QCheck.Test.make ~name:"every route answers as the reference under churn" ~count:60 arb_script
    (fun script ->
      let w = build () in
      Fun.protect ~finally:(fun () -> shutdown w) @@ fun () ->
      sweep w;
      List.iter
        (fun op ->
          List.iter (bump tally.seen) (op_kinds op);
          apply w op;
          sweep w)
        script;
      true)

(* The property runs once, with metrics and tracing off, from the
   first case that reads it: the oracle's own case, or a route case
   the handle, chain and certificate suites hold. *)
let run =
  Once.make (fun () ->
      let metrics = Metrics.enabled () and tracing = Trace.enabled () in
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled metrics;
          Trace.set_enabled tracing)
      @@ fun () ->
      let _name, _speed, run = QCheck_alcotest.to_alcotest prop_oracle in
      run ())

let probes_by routes = List.fold_left (fun n route -> n + count tally.probes route) 0 routes

(* The property held; each of [routes] answered probes, and each fast
   one served some itself; the script generated each of [kinds]. *)
let check_routes ~routes ~kinds =
  Once.force run;
  List.iter
    (fun route ->
      Alcotest.(check bool)
        (route_name route ^ " answered as the reference")
        true
        (count tally.probes route > 0);
      match route with
      | Checked | Served_call -> ()
      | Handle | Proved | Chain | Served_handle ->
        Alcotest.(check bool)
          (route_name route ^ " served some probes itself")
          true
          (count tally.fast route > 0))
    routes;
  List.iter
    (fun kind -> Alcotest.(check bool) (kind ^ " generated") true (Hashtbl.mem tally.seen kind))
    kinds

(* A case holding [routes] to the reference under churn that
   generated [kinds], for the suite of the fast path it covers. *)
let routes_case name ~routes ~kinds =
  Alcotest.test_case name `Quick (fun () -> check_routes ~routes ~kinds)

(* A case asserting [routes] answered 10,000 probes between them. *)
let volume_case name ~routes =
  Alcotest.test_case name `Quick (fun () ->
      Once.force run;
      let probes = probes_by routes in
      Alcotest.(check bool)
        (Printf.sprintf "%d probes by %s, at least 10,000" probes
           (String.concat ", " (List.map route_name routes)))
        true (probes >= 10_000))

(* The property and its own counts: every route answered and each
   fast one served some probes itself, every op kind was generated,
   and 30,000 probes in all. *)
let test_oracle () =
  check_routes ~routes ~kinds;
  let probes = probes_by routes in
  Alcotest.(check bool) (Printf.sprintf "%d probes, at least 30,000" probes) true (probes >= 30_000)

let suite =
  [ Alcotest.test_case "every route answers as the reference under churn" `Quick test_oracle ]
