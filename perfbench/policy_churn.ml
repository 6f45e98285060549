(* policy_churn: administrators' membership edits beside the data
   plane's calls, all in one domain.

   Why: it is the only workload on snapshot refresh, Acl_compiled
   recompilation and handle/certificate revalidation — the post-edit
   spike that counts as much as the steady state.  The population is
   above Acl_compiled.dense_limit (4,096), so the sparse compiled
   shape runs.

   World: 20,480 individuals in 256 teams, nested eight to a
   department and eight departments to a division; 48 registered
   callers, each in one of four staff teams (under "staff") and one
   consulted team.  /svc procs carry ACLs naming departments,
   divisions and teams of the consulted half (teams 0-127); eight
   staff-only procs are certified into eight linked extensions.

   Traffic: checked Kernel.call, Kernel.call_handle and certified
   Linked.call, with one membership edit every [edit_every] ops.  An
   edit adds a non-caller to a team, and the edit [edit_every] ops
   later removes them again, so group sizes stay constant.  Most edits
   go to teams 128-255, which no consulted ACL names; a fixed share
   goes to consulted teams.  No edit touches a caller or a staff team,
   so every call's expected outcome is fixed. *)

open Exsec_core
open Exsec_extsys
module H = Harness
module Linked = Linker.Linked
module Metrics = Exsec_obs.Metrics

let n_individuals = 20480
let n_teams = 256
let n_consulted = 128 (* teams 0..127 and their departments and divisions *)
let n_callers = 48
let n_procs = 64
let n_staff_procs = 8
let n_exts = 8
let handles_per_caller = 2
let profile_granted = 3 (* checked procs each caller calls, expected grants ... *)
let profile_denied = 1 (* ... and expected denials *)
let edit_every = 2000
let covered_share = 0.25
let granted_share = 0.8 (* of the checked calls *)
let stream_ops = 1 lsl 16
let stream_edits = 1 lsl 12
let sample_mask = 15

(* Model group ids. *)
let dept k = n_teams + k (* k < 32: teams 8k .. 8k+7 *)
let div j = n_teams + 32 + j (* j < 4: departments 8j .. 8j+7 *)
let staff = n_teams + 36
let staff_team s = n_teams + 37 + s (* s < 4 *)

let group_name g =
  if g < n_teams then Printf.sprintf "t%03d" g
  else if g < n_teams + 32 then Printf.sprintf "d%02d" (g - n_teams)
  else if g < n_teams + 36 then Printf.sprintf "v%d" (g - n_teams - 32)
  else if g = staff then "staff"
  else Printf.sprintf "s%d" (g - staff - 1)

let individual i = Printf.sprintf "c%05d" i
let proc_path k = Path.of_string (Printf.sprintf "/svc/churn/p%02d" k)
let proc_value k n = Value.int ((k * 1000) + n)

(* {1 The world, as the generator knows it} *)

type spec = {
  teams : int list array; (* direct teams per individual (callers: consulted team only) *)
  caller_level : int array;
  proc_entries : Model.entry list array;
  proc_level : int array;
}

let make_spec seed =
  let rng = H.rng seed 21 in
  let teams =
    Array.init n_individuals (fun i ->
        if i < n_callers then [ H.int rng n_consulted ]
        else
          let t = H.int rng n_teams in
          if H.chance rng 0.3 then
            let t' = H.int rng n_teams in
            if t' = t then [ t ] else [ t; t' ]
          else [ t ])
  in
  let caller_level = Array.init n_callers (fun i -> i mod 3) in
  let listable = Model.allow Model.All [ Access_mode.List ] in
  let proc_entries =
    Array.init n_procs (fun k ->
        if k < n_staff_procs then [ Model.allow (Model.Grp staff) [ Access_mode.Execute ]; listable ]
        else
          (Model.allow (Model.Grp (dept (H.int rng 16))) [ Access_mode.Execute ]
          :: (if H.chance rng 0.5 then [ Model.allow (Model.Grp (div (H.int rng 2))) [ Access_mode.Execute ] ] else []))
          @ (if H.chance rng 0.5 then [ Model.deny (Model.Grp (H.int rng n_consulted)) [ Access_mode.Execute ] ] else [])
          @ [ listable ])
  in
  let proc_level =
    Array.init n_procs (fun k ->
        if k < n_staff_procs then 0
        else
          let r = Random.State.float rng 1.0 in
          if r < 0.1 then 2 else if r < 0.3 then 1 else 0)
  in
  { teams; caller_level; proc_entries; proc_level }

let in_group spec i g =
  let teams = spec.teams.(i) in
  if g < n_teams then List.mem g teams
  else if g < n_teams + 32 then List.exists (fun t -> t / 8 = g - n_teams) teams
  else if g < n_teams + 36 then List.exists (fun t -> t / 64 = g - n_teams - 32) teams
  else i < n_callers && (g = staff || g = staff_team (i mod 4))

let outcome spec caller k =
  Model.outcome ~in_group:(in_group spec caller) ~entries:spec.proc_entries.(k)
    ~subject_level:spec.caller_level.(caller) ~object_level:spec.proc_level.(k) Access_mode.Execute

(* The checked procs the caller may, or may not, call. *)
let checked_procs spec caller ~granted =
  List.filter
    (fun k -> k >= n_staff_procs && (outcome spec caller k = Model.Granted) = granted)
    (List.init n_procs Fun.id)

(* The procs each caller holds a handle on, in opening order. *)
let handle_procs spec caller = List.filteri (fun j _ -> j < handles_per_caller) (checked_procs spec caller ~granted:true)

(* {1 Building the program's world} *)

type world = {
  kernel : Kernel.t;
  db : Principal.Db.t;
  subjects : Subject.t array; (* callers, at their clearance *)
  metas : Meta.t array; (* per proc *)
  exts : Linked.t array;
  handles : Handle.h array;
  import_s : float;
}

let fail what = failwith ("policy_churn set-up: " ^ what)

let ok what = function
  | Ok v -> v
  | Error _ -> fail what

let build spec =
  let hierarchy = Model.hierarchy () and universe = Model.universe () in
  let klass = Model.klass hierarchy universe in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let group g = Principal.group (group_name g) in
  let t0 = H.now_ns () in
  Principal.Db.batch db (fun () ->
      Principal.Db.add_individual db admin;
      for t = 0 to n_teams - 1 do
        Principal.Db.add_member db (group (dept (t / 8))) (Principal.Grp (group t))
      done;
      for d = 0 to 31 do
        Principal.Db.add_member db (group (div (d / 8))) (Principal.Grp (group (dept d)))
      done;
      for s = 0 to 3 do
        Principal.Db.add_member db (group staff) (Principal.Grp (group (staff_team s)))
      done;
      Array.iteri
        (fun i teams ->
          let who = Principal.Ind (Principal.individual (individual i)) in
          List.iter (fun t -> Principal.Db.add_member db (group t) who) teams;
          if i < n_callers then Principal.Db.add_member db (group (staff_team (i mod 4))) who)
        spec.teams);
  let import_s = float_of_int (H.now_ns () - t0) /. 1e9 in
  (* Only the callers are registered: link-time proofs quantify over
     the registered sessions. *)
  let registry = Clearance.create () in
  Array.iteri
    (fun i level -> Clearance.register registry (Principal.individual (individual i)) (klass level))
    spec.caller_level;
  let kernel =
    Kernel.boot ~policy:(Policy.with_recheck Policy.default) ~registry ~db ~admin ~hierarchy
      ~universe ()
  in
  let root = Kernel.admin_subject kernel in
  let dir = Path.of_string "/svc/churn" in
  ok "/svc/churn"
    (Kernel.add_dir kernel ~subject:root dir
       ~meta:
         (Meta.make ~owner:admin
            ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
            (klass 0)));
  let metas =
    Array.init n_procs (fun k ->
        let meta = Meta.make ~owner:admin ~acl:(Model.to_acl group spec.proc_entries.(k)) (klass spec.proc_level.(k)) in
        let impl _ctx = function
          | [ Value.Int n ] -> Ok (proc_value k n)
          | _ -> Error (Service.Bad_argument "p: one int")
        in
        ok "proc" (Kernel.install_proc kernel ~subject:root (proc_path k) ~meta (Service.proc "p" 1 impl));
        meta)
  in
  let subjects =
    Array.init n_callers (fun i -> ok "login" (Clearance.login registry (Principal.individual (individual i))))
  in
  let exts =
    Array.init n_exts (fun e ->
        let imports = List.init 4 (fun j -> proc_path ((e + (2 * j)) mod n_staff_procs)) in
        match
          Linker.link kernel ~subject:subjects.(0)
            (Extension.make ~name:(Printf.sprintf "k%d" e) ~author:(Principal.individual (individual 0)) ~imports ())
        with
        | Ok linked -> linked
        | Error e -> fail (Format.asprintf "%a" Linker.pp_link_error e))
  in
  let handles =
    List.concat_map
      (fun i ->
        List.map
          (fun k -> ok "open_handle" (Kernel.open_handle kernel ~subject:subjects.(i) ~caller:"churn" (proc_path k)))
          (handle_procs spec i))
      (List.init n_callers Fun.id)
  in
  { kernel; db; subjects; metas; exts; handles = Array.of_list handles; import_s }

(* {1 The op and edit streams} *)

let kind_names = [| "kernel_call"; "call_handle"; "linked_call" |]

type op = {
  kind : int;
  target : int; (* proc (kind 0), handle (kind 1) or extension (kind 2) *)
  path : Path.t;
  caller : int;
  args : Value.t list;
  expect : Value.t option; (* None: denied *)
}

type edit = {
  group : Principal.group;
  who : Principal.member;
  add : bool;
}

let generate spec seed =
  let rng = H.rng seed 22 in
  (* Each caller calls a small fixed profile of checked procs, so
     between edits the decision cache refills and the calls settle
     into a steady state; the misses follow each edit. *)
  let profile n procs =
    let procs = Array.of_list procs in
    Array.init (min n (Array.length procs)) (fun _ -> H.pick rng procs)
  in
  let granted = Array.init n_callers (fun i -> profile profile_granted (checked_procs spec i ~granted:true)) in
  let denied = Array.init n_callers (fun i -> profile profile_denied (checked_procs spec i ~granted:false)) in
  (* The world opens its handles in this order. *)
  let handles =
    Array.of_list (List.concat_map (fun i -> List.map (fun k -> k, i) (handle_procs spec i)) (List.init n_callers Fun.id))
  in
  let exts = Array.init n_exts (fun e -> Array.init 4 (fun j -> (e + (2 * j)) mod n_staff_procs)) in
  let ops =
    Array.init stream_ops (fun _ ->
        let n = H.int rng 1000 in
        let args = [ Value.int n ] in
        let r = H.int rng 100 in
        if r < 60 then begin
          let caller = H.int rng n_callers in
          let want = H.chance rng granted_share in
          let pool = if (want && Array.length granted.(caller) > 0) || Array.length denied.(caller) = 0 then granted.(caller) else denied.(caller) in
          let k = H.pick rng pool in
          let expect = if outcome spec caller k = Model.Granted then Some (proc_value k n) else None in
          { kind = 0; target = k; path = proc_path k; caller; args; expect }
        end
        else if r < 80 then begin
          let h = H.int rng (Array.length handles) in
          let k, caller = handles.(h) in
          { kind = 1; target = h; path = proc_path k; caller; args; expect = Some (proc_value k n) }
        end
        else begin
          let e = H.int rng n_exts in
          let k = H.pick rng exts.(e) in
          { kind = 2; target = e; path = proc_path k; caller = H.int rng n_callers; args; expect = Some (proc_value k n) }
        end)
  in
  let edits =
    Array.init (stream_edits / 2) (fun _ ->
        let covered = H.chance rng covered_share in
        let g = if covered then H.int rng n_consulted else n_consulted + H.int rng (n_teams - n_consulted) in
        let rec pick () =
          let i = n_callers + H.int rng (n_individuals - n_callers) in
          if List.mem g spec.teams.(i) then pick () else i
        in
        let who = Principal.Ind (Principal.individual (individual (pick ()))) in
        let group = Principal.group (group_name g) in
        [| { group; who; add = true }; { group; who; add = false } |], covered)
  in
  let covered = Array.fold_left (fun acc (_, c) -> if c then acc + 1 else acc) 0 edits in
  ops, Array.concat (Array.to_list (Array.map fst edits)), float_of_int covered /. float_of_int (Array.length edits)

(* {1 Running ops} *)

let exec w op =
  match op.kind with
  | 0 -> Kernel.call w.kernel ~subject:w.subjects.(op.caller) ~caller:"churn" op.path op.args
  | 1 -> Kernel.call_handle w.kernel w.handles.(op.target) op.args
  | _ -> Linked.call w.exts.(op.target) ~subject:w.subjects.(op.caller) op.path op.args

let check tally op result =
  match op.expect, result with
  | Some v, Ok got when Value.equal v got -> true
  | None, Error (Service.Denied _) -> true
  | _, Error (Service.Quota_exceeded _) ->
    tally.H.failed <- tally.H.failed + 1;
    false
  | _, Ok got ->
    H.wrong tally (Format.asprintf "%s %a by %s: got %a" kind_names.(op.kind) Path.pp op.path (individual op.caller) Value.pp got);
    false
  | _, Error e ->
    H.wrong tally
      (Format.asprintf "%s %a by %s: %s" kind_names.(op.kind) Path.pp op.path (individual op.caller) (Service.error_to_string e));
    false

let apply db e =
  if e.add then Principal.Db.add_member db e.group e.who else Principal.Db.remove_member db e.group e.who

type runner = {
  ops : op array;
  edits : edit array;
  mutable next : int;
  mutable next_edit : int;
  lat : H.samples;
  edit_lat : H.samples;
  post_lat : H.samples;
  tally : H.tally;
  (* traced run only *)
  mutable traced : bool;
  refresh : H.samples;
  mutable recompiles : int;
  mutable admitting : int;
  mutable cert_checks : int;
  compiled : Meta.compiled_slot option array;
}

let runner w ops edits =
  {
    ops; edits; next = 0; next_edit = 0; lat = H.samples 65536; edit_lat = H.samples 16384;
    post_lat = H.samples 16384; tally = H.tally (); traced = false; refresh = H.samples 16384;
    recompiles = 0; admitting = 0; cert_checks = 0;
    compiled = Array.map (fun (m : Meta.t) -> m.Meta.compiled) w.metas;
  }

let span_edit = lazy (H.Spans.intern "churn.edit")
let span_db_edit = lazy (H.Spans.intern "db.edit")
let span_refresh = lazy (H.Spans.intern "db.snapshot_refresh")
let span_kinds = lazy (Array.map H.Spans.intern kind_names)
let span_post = lazy (Array.map (fun k -> H.Spans.intern ("post_edit." ^ k)) kind_names)

(* The traced run's per-edit bookkeeping, done before the edit: which
   compiled ACLs changed since the last edit, and whether each
   extension's certificate still admits. *)
let before_edit w r =
  Array.iteri
    (fun k (m : Meta.t) ->
      if m.Meta.compiled != r.compiled.(k) then begin
        r.recompiles <- r.recompiles + 1;
        r.compiled.(k) <- m.Meta.compiled
      end)
    w.metas;
  Array.iter
    (fun l ->
      r.cert_checks <- r.cert_checks + 1;
      if Kernel.certificate_admits w.kernel ~caller:(Linked.name l) ~subject:w.subjects.(0) (List.hd (Linked.imports l))
      then r.admitting <- r.admitting + 1)
    w.exts

(* One edit, then [edit_every] ops; the edit and the first op after it
   are always timed, one in sixteen of the others. *)
let step w r () =
  let t = r.tally in
  let e = r.edits.(r.next_edit) in
  r.next_edit <- (r.next_edit + 1) land (stream_edits - 1);
  if r.traced then before_edit w r;
  let root = H.Spans.enter (Lazy.force span_edit) ~parent:(-1) ~req:r.next_edit in
  let sp = H.Spans.enter (Lazy.force span_db_edit) ~parent:root ~req:r.next_edit in
  let t0 = H.now_ns () in
  apply w.db e;
  H.add r.edit_lat (H.now_ns () - t0);
  H.Spans.leave sp;
  if r.traced then begin
    let sp = H.Spans.enter (Lazy.force span_refresh) ~parent:root ~req:r.next_edit in
    let t0 = H.now_ns () in
    ignore (Principal.Db.snapshot w.db);
    H.add r.refresh (H.now_ns () - t0);
    H.Spans.leave sp
  end;
  H.Spans.leave root;
  let good = ref 0 in
  for j = 0 to edit_every - 1 do
    let i = r.next in
    r.next <- (i + 1) land (stream_ops - 1);
    let op = r.ops.(i) in
    t.H.attempted <- t.H.attempted + 1;
    let result =
      if j = 0 then begin
        let sp = H.Spans.enter (Lazy.force span_post).(op.kind) ~parent:(-1) ~req:i in
        let t0 = H.now_ns () in
        let result = exec w op in
        H.add r.post_lat (H.now_ns () - t0);
        H.Spans.leave sp;
        result
      end
      else if i land sample_mask = 0 then begin
        let sp = H.Spans.enter (Lazy.force span_kinds).(op.kind) ~parent:(-1) ~req:i in
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

(* {1 The interpreted cross-check}

   A fixed sample of checked calls, outside the timed region, against
   the interpreted reference: Acl.check over the live database plus
   Mac.check, on every node of the resolution chain ([List] above the
   target, [Execute] on it). *)

let cross_check w ops tally =
  let ns = Kernel.namespace w.kernel in
  let policy = Reference_monitor.policy (Kernel.monitor w.kernel) in
  let permits subject meta mode =
    (Acl.permits ~db:w.db ~subject:(Subject.principal subject) ~mode meta.Meta.acl)
    && Result.is_ok
         (Mac.check ~rule:policy.Policy.overwrite ~subject:(Subject.effective_class subject)
            ~object_:meta.Meta.klass mode)
  in
  let checked = ref 0 in
  Array.iter
    (fun op ->
      if op.kind = 0 && !checked < 512 then begin
        incr checked;
        let subject = w.subjects.(op.caller) in
        let chain = Option.get (Namespace.chain ns op.path) in
        let n = List.length chain in
        let reference =
          List.for_all2
            (fun node mode -> permits subject (Namespace.meta node) mode)
            chain
            (List.init n (fun j -> if j = n - 1 then Access_mode.Execute else Access_mode.List))
        in
        tally.H.attempted <- tally.H.attempted + 1;
        if reference <> (op.expect <> None) then
          H.wrong tally (Format.asprintf "interpreted reference disagrees on %a by %s" Path.pp op.path (individual op.caller))
        else ignore (check tally op (exec w op))
      end)
    ops;
  H.note_int "cross_checked_ops" !checked

(* {1 Runs} *)

let note_inputs w ops covered =
  H.note_int "principals" n_individuals;
  H.note_int "groups" (n_teams + 32 + 4 + 1 + 4);
  H.note_int "group_nesting_depth" 3;
  H.note_int "dense_limit" Acl_compiled.dense_limit;
  H.note_int "callers" n_callers;
  H.note_int "procs" n_procs;
  H.note_int "handles" (Array.length w.handles);
  H.note_int "certified_extensions" n_exts;
  H.note_int "stream_ops" stream_ops;
  H.note_int "ops_per_edit" edit_every;
  H.note_float "covered_edit_share" covered;
  let counts = Array.make (Array.length kind_names) 0 in
  let denied = ref 0 in
  Array.iter
    (fun op ->
      counts.(op.kind) <- counts.(op.kind) + 1;
      if op.expect = None then incr denied)
    ops;
  Array.iteri
    (fun k name -> H.note_float ("mix." ^ name) (float_of_int counts.(k) /. float_of_int stream_ops))
    kind_names;
  H.note_float "expected_denied_share" (float_of_int !denied /. float_of_int stream_ops)

let run ~seed ~seconds ~trace tally =
  let spec = make_spec seed in
  let ops, edits, covered = generate spec seed in
  let warm w =
    let r = runner w ops edits in
    for _ = 1 to 16 do
      ignore (step w r ())
    done
  in
  let w =
    H.setup ~reps:5 ~release:ignore (fun () ->
        let w = build spec in
        warm w;
        w)
  in
  note_inputs w ops covered;
  H.set "db.import_s" w.import_s;
  let region r =
    Gc.compact ();
    let gc0 = H.gc_mark () in
    let g = H.timed_region ~seconds ~lat:r.lat (step w r) in
    H.merge tally r.tally;
    g, gc0
  in
  let r = runner w ops edits in
  let g, gc0 = region r in
  let n = g.H.ops in
  H.note_int "ops_completed" n;
  H.note_int "edits" r.edit_lat.H.seen;
  H.set "edit_p50_us" (H.p50_us r.edit_lat);
  H.set "post_edit_p50_us" (H.p50_us r.post_lat);
  if not trace then begin
    H.set_region g;
    H.note_gc ~ops:n gc0;
    H.set "heap_mb" (H.heap_mb ())
  end
  else begin
    H.set "trace.untraced_ops_per_s" g.H.ops_per_s;
    Metrics.reset ();
    Metrics.set_enabled true;
    H.Spans.start_tracing ();
    let cache0 = Kernel.cache_stats w.kernel in
    let gen0 = Principal.Db.generation w.db in
    let r = runner w ops edits in
    r.traced <- true;
    let g, gc0 = region r in
    let n = g.H.ops in
    Metrics.set_enabled false;
    H.note_gc ~ops:n gc0;
    H.set "trace.ops_per_s" g.H.ops_per_s;
    let edits = float_of_int (max 1 r.edit_lat.H.seen) in
    H.set "db.edit_us" (H.p50_us r.edit_lat);
    H.set "db.snapshot_refresh_us" (H.p50_us r.refresh);
    H.set "db.generation_bumps_per_edit" (float_of_int (Principal.Db.generation w.db - gen0) /. edits);
    H.set "acl.recompiles_per_edit" (float_of_int r.recompiles /. edits);
    H.set "cert.survival_ratio" (float_of_int r.admitting /. float_of_int (max 1 r.cert_checks));
    H.set "handle.remints_per_edit" (H.counter "handle.reminted" /. edits);
    H.set_counter_metrics ~ops:n;
    H.set_cache_metrics ~edits:r.edit_lat.H.seen cache0 (Kernel.cache_stats w.kernel);
    (* Steady-state probes, on a settled snapshot: calls straight into
       each layer for the first ops of the stream. *)
    let compile = H.samples 1024 and kcall = H.samples 8192 and hcall = H.samples 8192 in
    let admits = H.samples 8192 and resolve = H.samples 8192 and decide = H.samples 8192 in
    let id = H.Spans.intern in
    let s_probe = id "probe.op" and s_compile = id "acl.compile" and s_kcall = id "kernel.call"
    and s_resolve = id "resolver.resolve" and s_decide = id "monitor.decide"
    and s_hcall = id "kernel.call_handle" and s_admits = id "cert.admits" in
    Array.iter
      (fun (m : Meta.t) ->
        ignore (H.layer s_compile ~parent:(-1) compile (fun () -> Acl_compiled.compile ~db:w.db m.Meta.acl)))
      w.metas;
    let resolver = Kernel.resolver w.kernel and monitor = Kernel.monitor w.kernel in
    for i = 0 to 8191 do
      let op = ops.(i) in
      let subject = w.subjects.(op.caller) in
      let parent = H.Spans.enter s_probe ~parent:(-1) ~req:i in
      (match op.kind with
      | 0 -> (
        ignore (H.layer s_kcall ~parent kcall (fun () -> exec w op));
        match
          H.layer s_resolve ~parent resolve (fun () ->
              Resolver.resolve resolver ~subject ~mode:Access_mode.Execute op.path)
        with
        | Ok node ->
          ignore
            (H.layer s_decide ~parent decide (fun () ->
                 Reference_monitor.decide monitor ~subject ~meta:(Namespace.meta node) ~mode:Access_mode.Execute))
        | Error _ -> ())
      | 1 -> ignore (H.layer s_hcall ~parent hcall (fun () -> exec w op))
      | _ ->
        ignore
          (H.layer s_admits ~parent admits (fun () ->
               Kernel.certificate_admits w.kernel ~caller:(Linked.name w.exts.(op.target)) ~subject op.path)));
      H.Spans.leave parent
    done;
    H.Spans.stop_tracing ();
    H.set "acl.compile_us" (H.p50_us compile);
    H.set "kernel.call_ns" (H.p50_ns kcall);
    H.set "handle.call_ns" (H.p50_ns hcall);
    H.set "cert.admits_ns" (H.p50_ns admits);
    let resolves = H.sorted resolve in
    H.set "resolver.resolve_us" (H.quantile resolves 0.5 /. 1e3);
    H.set "resolver.resolve_us.p99" (H.quantile resolves 0.99 /. 1e3);
    H.set "monitor.decide_ns" (H.p50_ns decide);
    H.set_width_walked (Kernel.namespace w.kernel)
      (List.filter_map (fun op -> if op.kind = 0 then Some op.path else None) (Array.to_list (Array.sub ops 0 8192)))
  end;
  cross_check w ops tally
