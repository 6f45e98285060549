(* ext_calls: the paper's own traffic, extensions calling through their
   imports, all in one domain.

   Why: it is the only workload on Linker, Certificate, Dispatcher and
   the handle/certificate fast paths, and its hot working set fits the
   decision cache.  The kernel boots with a clearance registry and the
   recheck policy, so certificates and handles (not unchecked
   SPIN-style imports) are what keep calls cheap.

   World: tens of principals, no edits; 32 /svc procs, three quarters
   open to everyone (certifiable) and a quarter open to one group
   (checked per call); 128 linked extensions — 16 relays that provide
   a proc calling one /svc proc, 96 plain importers, 8 relay users
   (whose nested /svc targets the chain analysis pre-mints as handles)
   and 8 handlers of one event at three static classes. *)

open Exsec_core
open Exsec_extsys
module H = Harness
module Linked = Linker.Linked
module Metrics = Exsec_obs.Metrics

let n_principals = 24 (* x00..x11 in "ops", x12..x23 in "dev"; level = i mod 3 *)
let n_procs = 32
let n_open = 24 (* p00..p23 open to everyone; the rest to "ops" *)
let n_relays = 16
let n_plain = 96
let n_relay_users = 8
let handler_levels = [| 0; 0; 0; 1; 1; 1; 2; 2 |]
let stream_ops = 1 lsl 16
let block = 1024 (* ops per timed step *)
let sample_mask = 15 (* time one op in 16 *)

let principal i = Printf.sprintf "x%02d" i
let proc_path k = Path.of_string (Printf.sprintf "/svc/api/p%02d" k)
let event_path = Path.of_string "/svc/ev/notify"
let proc_value k n = Value.int ((k * 1000) + n)

(* {1 The world, as the generator knows it} *)

type spec = {
  plain_imports : int array array; (* proc indices *)
  relay_target : int array; (* the /svc proc each relay calls *)
  relay_of_user : int array; (* the relay each relay user imports *)
}

let make_spec seed =
  let rng = H.rng seed 11 in
  let distinct k pool =
    let rec go acc =
      if List.length acc = k then Array.of_list acc
      else
        let p = pool () in
        if List.mem p acc then go acc else go (p :: acc)
    in
    go []
  in
  let plain_imports =
    Array.init n_plain (fun _ ->
        if H.chance rng 0.25 then
          Array.append (distinct 2 (fun () -> H.int rng n_open)) [| n_open + H.int rng (n_procs - n_open) |]
        else distinct 3 (fun () -> H.int rng n_open))
  in
  let relay_target = Array.init n_relays (fun _ -> H.int rng n_open) in
  let relay_of_user = Array.init n_relay_users (fun _ -> H.int rng n_relays) in
  { plain_imports; relay_target; relay_of_user }

(* {1 Building the program's world} *)

type world = {
  kernel : Kernel.t;
  subjects : Subject.t array; (* one session per principal, at its clearance *)
  plain : Linked.t array;
  relay_users : Linked.t array;
  handlers : string array;
  link_ms : float list;
}

let fail what = failwith ("ext_calls set-up: " ^ what)

let build spec =
  let hierarchy = Model.hierarchy () and universe = Model.universe () in
  let klass = Model.klass hierarchy universe in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let ops_group = Principal.group "ops" and dev_group = Principal.group "dev" in
  let registry = Clearance.create () in
  Principal.Db.add_individual db admin;
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  for i = 0 to n_principals - 1 do
    let who = Principal.individual (principal i) in
    Principal.Db.add_member db (if i < 12 then ops_group else dev_group) (Principal.Ind who);
    Clearance.register registry who (klass (i mod 3))
  done;
  let kernel =
    Kernel.boot ~policy:(Policy.with_recheck Policy.default) ~registry ~db ~admin ~hierarchy
      ~universe ()
  in
  let root = Kernel.admin_subject kernel in
  let meta entries = Meta.make ~owner:admin ~acl:(Model.to_acl (fun _ -> ops_group) entries) (klass 0) in
  let listable = [ Model.allow Model.All [ Access_mode.List ] ] in
  let dir_meta () =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      (klass 0)
  in
  let ok what = function
    | Ok v -> v
    | Error _ -> fail what
  in
  ok "/svc/api" (Kernel.add_dir kernel ~subject:root (Path.of_string "/svc/api") ~meta:(dir_meta ()));
  for k = 0 to n_procs - 1 do
    let entries =
      if k < n_open then [ Model.allow Model.All [ Access_mode.List; Access_mode.Execute ] ]
      else Model.allow (Model.Grp 0) [ Access_mode.Execute ] :: listable
    in
    let impl _ctx = function
      | [ Value.Int n ] -> Ok (proc_value k n)
      | _ -> Error (Service.Bad_argument "p: one int")
    in
    ok "proc" (Kernel.install_proc kernel ~subject:root (proc_path k) ~meta:(meta entries) (Service.proc "p" 1 impl))
  done;
  ok "/svc/ev" (Kernel.add_dir kernel ~subject:root (Path.of_string "/svc/ev") ~meta:(dir_meta ()));
  ok "event"
    (Kernel.install_event kernel ~subject:root event_path
       ~meta:(meta [ Model.allow Model.All [ Access_mode.List; Access_mode.Execute; Access_mode.Extend ] ]));
  let subjects =
    Array.init n_principals (fun i ->
        ok "login" (Clearance.login registry (Principal.individual (principal i))))
  in
  let link_ms = ref [] in
  (* Authors: ops members at the lowest level (x00, x03, x06, x09), so
     every provided proc is visible to every caller. *)
  let author j = 3 * (j mod 4) in
  let link j ext =
    let t0 = H.now_ns () in
    let linked =
      match Linker.link kernel ~subject:subjects.(author j) ext with
      | Ok linked -> linked
      | Error e -> fail (Format.asprintf "%a" Linker.pp_link_error e)
    in
    link_ms := (float_of_int (H.now_ns () - t0) /. 1e6) :: !link_ms;
    linked
  in
  let ext name j ?static_class ?(imports = []) ?(provides = []) ?(extends = []) () =
    link j
      (Extension.make ~name ~author:(Principal.individual (principal (author j))) ?static_class ~imports
         ~provides ~extends ())
  in
  for r = 0 to n_relays - 1 do
    let target = proc_path spec.relay_target.(r) in
    ignore
      (ext (Printf.sprintf "r%02d" r) r ~imports:[ target ]
         ~provides:[ Extension.provided "relay" 1 (fun ctx args -> ctx.Service.call target args) ]
         ())
  done;
  let plain =
    Array.init n_plain (fun e ->
        ext (Printf.sprintf "e%02d" e) e ~imports:(Array.to_list (Array.map proc_path spec.plain_imports.(e))) ())
  in
  let relay_users =
    Array.init n_relay_users (fun u ->
        ext (Printf.sprintf "u%02d" u) u
          ~imports:[ Path.of_string (Printf.sprintf "/ext/r%02d/relay" spec.relay_of_user.(u)) ]
          ())
  in
  let handlers =
    Array.mapi
      (fun h level ->
        let name = Printf.sprintf "h%02d" h in
        let reply = Value.str name in
        ignore
          (ext name h ~static_class:(klass level)
             ~extends:[ Extension.extends event_path (fun _ctx _args -> Ok reply) ]
             ());
        name)
      handler_levels
  in
  { kernel; subjects; plain; relay_users; handlers; link_ms = !link_ms }

(* {1 The op stream} *)

let kind_names =
  [| "call_certified"; "call_checked"; "call_import"; "call_chain"; "call_relay"; "event_raise" |]

type op = {
  kind : int;
  ext : int;
  path : Path.t;
  subject : int;
  args : Value.t list;
  expect : Value.t;
}

let generate spec seed =
  let rng = H.rng seed 12 in
  let event_winner level =
    (* The most specific handler class the caller dominates; the first
       registered among equals. *)
    let best = ref (-1) in
    Array.iteri
      (fun h l -> if l <= level && (!best < 0 || l > handler_levels.(!best)) then best := h)
      handler_levels;
    Value.str (Printf.sprintf "h%02d" !best)
  in
  let with_group = List.filter (fun e -> Array.exists (fun k -> k >= n_open) spec.plain_imports.(e)) (List.init n_plain Fun.id) |> Array.of_list in
  Array.init stream_ops (fun _ ->
      let n = H.int rng 1000 in
      let args = [ Value.int n ] in
      let r = H.int rng 100 in
      let kind = if r < 30 then 0 else if r < 40 then 1 else if r < 65 then 2 else if r < 75 then 3 else if r < 85 then 4 else 5 in
      match kind with
      | 0 ->
        let e = H.int rng n_plain in
        let opens = List.filter (fun k -> k < n_open) (Array.to_list spec.plain_imports.(e)) in
        let k = List.nth opens (H.int rng (List.length opens)) in
        { kind; ext = e; path = proc_path k; subject = H.int rng n_principals; args; expect = proc_value k n }
      | 1 ->
        let e = H.pick rng with_group in
        let k = spec.plain_imports.(e).(2) in
        { kind; ext = e; path = proc_path k; subject = H.int rng 12; args; expect = proc_value k n }
      | 2 ->
        let e = H.int rng n_plain in
        let k = H.pick rng spec.plain_imports.(e) in
        { kind; ext = e; path = proc_path k; subject = 0; args; expect = proc_value k n }
      | 3 | 4 ->
        let u = H.int rng n_relay_users in
        let k = spec.relay_target.(spec.relay_of_user.(u)) in
        let path =
          if kind = 3 then proc_path k
          else Path.of_string (Printf.sprintf "/ext/r%02d/relay" spec.relay_of_user.(u))
        in
        { kind; ext = u; path; subject = H.int rng n_principals; args; expect = proc_value k n }
      | _ ->
        let s = H.int rng n_principals in
        { kind; ext = 0; path = event_path; subject = s; args; expect = event_winner (s mod 3) })

(* {1 Running ops} *)

let exec w op =
  match op.kind with
  | 0 | 1 -> Linked.call w.plain.(op.ext) ~subject:w.subjects.(op.subject) op.path op.args
  | 2 -> Linked.call_import w.plain.(op.ext) op.path op.args
  | 3 -> Linked.call_chain w.relay_users.(op.ext) op.path op.args
  | 4 -> Linked.call w.relay_users.(op.ext) ~subject:w.subjects.(op.subject) op.path op.args
  | _ -> Kernel.call w.kernel ~subject:w.subjects.(op.subject) ~caller:"client" op.path op.args

let check tally op = function
  | Ok v when Value.equal v op.expect -> true
  | Error (Service.Quota_exceeded _) ->
    tally.H.failed <- tally.H.failed + 1;
    false
  | Ok v ->
    H.wrong tally (Format.asprintf "%s %a: got %a" kind_names.(op.kind) Path.pp op.path Value.pp v);
    false
  | Error e ->
    H.wrong tally (Format.asprintf "%s %a: %s" kind_names.(op.kind) Path.pp op.path (Service.error_to_string e));
    false

type runner = {
  ops : op array;
  mutable next : int;
  lat : H.samples;
  tally : H.tally;
  span_ids : int array; (* per kind, used when tracing *)
}

let runner ops =
  { ops; next = 0; lat = H.samples 65536; tally = H.tally (); span_ids = Array.map H.Spans.intern kind_names }

(* One block of ops; one in sixteen is timed (and traced, when on). *)
let step w r () =
  let good = ref 0 in
  let t = r.tally in
  for _ = 1 to block do
    let i = r.next in
    r.next <- (i + 1) land (stream_ops - 1);
    let op = r.ops.(i) in
    t.H.attempted <- t.H.attempted + 1;
    let result =
      if i land sample_mask = 0 then begin
        let sp = H.Spans.enter r.span_ids.(op.kind) ~parent:(-1) ~req:i in
        let t0 = H.now_ns () in
        let result = exec w op in
        H.add r.lat (H.now_ns () - t0);
        H.Spans.leave sp;
        result
      end
      else exec w op
    in
    if check t op result then incr good
  done;
  !good

(* {1 Layer probes (traced run only)}

   Calls straight into each layer's public functions for the first
   ops of the stream: the certificate check, the kernel call it
   guards, a checked resolve and decide, a handle call, an event
   raise. *)

let probe w ops =
  let admits = H.samples 8192 and kcall = H.samples 8192 and resolve = H.samples 8192 in
  let decide = H.samples 8192 and hcall = H.samples 8192 and event = H.samples 8192 in
  let kernel = w.kernel in
  let resolver = Kernel.resolver kernel and monitor = Kernel.monitor kernel in
  let id = H.Spans.intern in
  let s_probe = id "probe.op" and s_admits = id "cert.admits" and s_kcall = id "kernel.call"
  and s_resolve = id "resolver.resolve" and s_decide = id "monitor.decide"
  and s_hcall = id "kernel.call_handle" and s_event = id "dispatcher.event" in
  let layer span parent = H.layer span ~parent in
  for i = 0 to 8191 do
    let op = ops.(i) in
    let subject = w.subjects.(op.subject) in
    let root = H.Spans.enter s_probe ~parent:(-1) ~req:i in
    (match op.kind with
    | 0 ->
      let linked = w.plain.(op.ext) in
      let caller = Linked.name linked in
      ignore (layer s_admits root admits (fun () -> Kernel.certificate_admits kernel ~caller ~subject op.path));
      ignore (layer s_kcall root kcall (fun () -> Kernel.call kernel ~subject ~caller op.path op.args))
    | 1 -> (
      match layer s_resolve root resolve (fun () -> Resolver.resolve resolver ~subject ~mode:Access_mode.Execute op.path) with
      | Ok node ->
        ignore
          (layer s_decide root decide (fun () ->
               Reference_monitor.decide monitor ~subject ~meta:(Namespace.meta node) ~mode:Access_mode.Execute))
      | Error _ -> ())
    | 2 -> (
      match Linked.import_handle w.plain.(op.ext) op.path with
      | Some h -> ignore (layer s_hcall root hcall (fun () -> Kernel.call_handle kernel h op.args))
      | None -> ())
    | 5 -> ignore (layer s_event root event (fun () -> exec w op))
    | _ -> ());
    H.Spans.leave root
  done;
  H.set "cert.admits_ns" (H.p50_ns admits);
  H.set "kernel.call_ns" (H.p50_ns kcall);
  let resolves = H.sorted resolve in
  H.set "resolver.resolve_us" (H.quantile resolves 0.5 /. 1e3);
  H.set "resolver.resolve_us.p99" (H.quantile resolves 0.99 /. 1e3);
  H.set "monitor.decide_ns" (H.p50_ns decide);
  H.set "handle.call_ns" (H.p50_ns hcall);
  H.set "dispatcher.event_ns" (H.p50_ns event);
  H.set_width_walked (Kernel.namespace kernel)
    (List.filter_map (fun op -> if op.kind = 1 then Some op.path else None) (Array.to_list (Array.sub ops 0 8192)))

(* {1 Runs} *)

let note_inputs w ops =
  H.note_int "principals" n_principals;
  H.note_int "groups" 2;
  H.note_int "svc_procs" n_procs;
  H.note_int "extensions" (n_relays + n_plain + n_relay_users + Array.length handler_levels);
  H.note_int "event_handlers" (Array.length w.handlers);
  let certs = List.length (Kernel.certificates w.kernel) in
  H.note_int "certificates" certs;
  H.note_int "stream_ops" stream_ops;
  let counts = Array.make (Array.length kind_names) 0 in
  Array.iter (fun op -> counts.(op.kind) <- counts.(op.kind) + 1) ops;
  Array.iteri
    (fun k name -> H.note_float ("mix." ^ name) (float_of_int counts.(k) /. float_of_int stream_ops))
    kind_names;
  let keys = Hashtbl.create 1024 in
  Array.iter (fun op -> Hashtbl.replace keys (op.kind, op.ext, Path.to_string op.path, op.subject) ()) ops;
  H.note_int "distinct_call_keys" (Hashtbl.length keys);
  H.note_int "decision_cache_capacity" 8192;
  H.note_float "expected_denied_share" 0.0

let run ~seed ~seconds ~trace tally =
  let spec = make_spec seed in
  let ops = generate spec seed in
  let warm w =
    let r = runner ops in
    for _ = 1 to 32 do
      ignore (step w r ())
    done
  in
  let w =
    H.setup ~reps:5 ~release:ignore (fun () ->
        let w = build spec in
        warm w;
        w)
  in
  note_inputs w ops;
  H.set "linker.link_ms" (H.median_float w.link_ms);
  H.set "linker.chain_handles"
    (float_of_int (Array.fold_left (fun acc l -> acc + List.length (Linked.chain_imports l)) 0 w.relay_users));
  let region r =
    Gc.compact ();
    let gc0 = H.gc_mark () in
    let g = H.timed_region ~seconds ~lat:r.lat (step w r) in
    H.merge tally r.tally;
    g, gc0
  in
  let r = runner ops in
  let g, gc0 = region r in
  let n = g.H.ops in
  H.note_int "ops_completed" n;
  if not trace then begin
    H.set_region g;
    H.note_gc ~ops:n gc0;
    H.set "heap_mb" (H.heap_mb ());
    ignore (Sys.opaque_identity w)
  end
  else begin
    H.set "trace.untraced_ops_per_s" g.H.ops_per_s;
    H.Spans.start_tracing ();
    probe w ops;
    Metrics.reset ();
    Metrics.set_enabled true;
    let cache0 = Kernel.cache_stats w.kernel in
    let r = runner ops in
    let g, gc0 = region r in
    let n = g.H.ops in
    Metrics.set_enabled false;
    H.Spans.stop_tracing ();
    H.note_gc ~ops:n gc0;
    H.set "trace.ops_per_s" g.H.ops_per_s;
    H.set_counter_metrics ~ops:n;
    H.set_cache_metrics ~edits:0 cache0 (Kernel.cache_stats w.kernel)
  end
