module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace

let m_resolves = Metrics.counter "resolver.resolves"
let m_denials = Metrics.counter "resolver.denials"
let m_name_errors = Metrics.counter "resolver.name_errors"
let m_resolve_ns = Metrics.histogram "resolver.resolve_ns"

type 'a t = {
  monitor : Reference_monitor.t;
  namespace : 'a Namespace.t;
}

let create monitor namespace = { monitor; namespace }
let monitor r = r.monitor
let namespace r = r.namespace

type denial =
  | Denied of { at : Path.t; label : string; mode : Access_mode.t; denial : Decision.denial }
  | Name_error of Namespace.error

let pp_denial ppf = function
  | Denied { label; mode; denial; _ } ->
    Format.fprintf ppf "%s (%a): %a" label Access_mode.pp mode Decision.pp_denial denial
  | Name_error error -> Namespace.pp_error ppf error

(* One level of a resolution, decided on the node's value [meta] under
   the context the resolution read when it started: [observed] (whether
   metrics or tracing is on), its [span] (or [Trace.none]), the
   monitor's [policy] and the published membership [snapshot].  A
   denial carries the node's label, rendered at insertion, so reporting
   it renders no path. *)
let check_value ~observed ~span r policy snapshot ~subject node meta mode =
  match
    Reference_monitor.check_in ~observed ~span r.monitor policy snapshot ~subject ~meta
      ~object_name:(Namespace.label node) ~mode
  with
  | Decision.Granted -> Ok ()
  | Decision.Denied denial ->
    Error (Denied { at = Namespace.path node; label = Namespace.label node; mode; denial })

let check ~observed ~span r policy snapshot ~subject node mode =
  check_value ~observed ~span r policy snapshot ~subject node (Namespace.meta node) mode

(* The name error of a probe that found nothing in [node]: [target]
   is missing from a directory, or the walk met a leaf mid-path. *)
let missing node target =
  if Namespace.is_dir node then Namespace.Not_found target
  else Namespace.Not_a_directory (Namespace.path node)

(* The walk's first failure, raised where it happens and caught by the
   operation that started the walk. *)
exception Refused of denial

(* The node [path] names, with [List] checked on every *interior* node
   strictly above it; the node itself is unchecked.  The recursion
   descends the path itself: it reaches the root first, then checks
   and probes one level on each return, so the checks run root first
   with no segment list and no closure.  Each level costs one monitor
   decision (with its audit record) and one string-keyed probe, so the
   walk is O(depth) whatever the directories' width.  Every level
   decides under the one context handed down (see [check]).  [target]
   is only for the name error. *)
let rec descend ~observed ~span r policy snapshot ~subject target path =
  if Path.is_root path then Namespace.root r.namespace
  else
    let dir = descend ~observed ~span r policy snapshot ~subject target (Path.up path) in
    match check ~observed ~span r policy snapshot ~subject dir Access_mode.List with
    | Error denial -> raise_notrace (Refused denial)
    | Ok () -> (
      match Namespace.child dir (Path.last path) with
      | node -> node
      | exception Not_found -> raise_notrace (Refused (Name_error (missing dir target))))

(* Each operation below reads its context once, when it starts: the
   observability switch, the span handed down, the policy and the
   published snapshot ([resolve_in] takes the last two from its
   caller), and decides every check it makes under them: the walk's
   levels, the target's mode and, for a mutation, its last check.  The
   span stays the caller's optional argument until here, so an
   untraced walk never boxes it. *)

let walk ~observed ~span r policy snapshot ~subject target =
  match descend ~observed ~span r policy snapshot ~subject target target with
  | node -> Ok node
  | exception Refused denial -> Error denial

let lookup r ~subject target =
  walk ~observed:(Trace.observing ()) ~span:Trace.none r (Reference_monitor.policy r.monitor)
    (Principal.Db.snapshot (Reference_monitor.db r.monitor))
    ~subject target

(* Bump the outcome counters shared by [resolve] and [remove]. *)
let observe_outcome result =
  match result with
  | Ok _ -> ()
  | Error (Denied _) -> Metrics.incr m_denials
  | Error (Name_error _) -> Metrics.incr m_name_errors

let resolve_bare ~observed ~span r policy snapshot ~subject ~mode target =
  match descend ~observed ~span r policy snapshot ~subject target target with
  | exception Refused denial -> Error denial
  | node -> (
    match check ~observed ~span r policy snapshot ~subject node mode with
    | Error e -> Error e
    | Ok () -> Ok node)

(* [resolve_bare]'s checks over a chain read beforehand, root first:
   [List] on every node but the last and [mode] on the last, each
   deciding on the value [metas] holds for it. *)
let rec decide_chain ~observed ~span r policy snapshot ~subject ~mode nodes metas i =
  let node = nodes.(i) and last = i = Array.length nodes - 1 in
  match
    check_value ~observed ~span r policy snapshot ~subject node metas.(i)
      (if last then mode else Access_mode.List)
  with
  | Error e -> Error e
  | Ok () when last -> Ok node
  | Ok () -> decide_chain ~observed ~span r policy snapshot ~subject ~mode nodes metas (i + 1)

(* A resolution ([bare]) inside the resolver's counters, its timer and,
   when no active span was handed down (a direct resolution, not one
   inside [Kernel.call]), a span of its own: this resolution is then
   the top-level traced operation. *)
let resolve_observed ?span ~mode target bare =
  let t0 = Metrics.start_counted m_resolves m_resolve_ns in
  let own =
    match span with
    | Some handed when Trace.active handed -> Trace.none
    | Some _ | None -> Trace.start "resolver.resolve"
  in
  let span =
    if Trace.active own then begin
      Trace.annotate own "path" (Path.to_string target);
      Trace.annotate own "mode" (Format.asprintf "%a" Access_mode.pp mode);
      own
    end
    else Option.value span ~default:Trace.none
  in
  let result = bare span in
  Trace.finish own;
  Metrics.stop_timing m_resolve_ns t0;
  observe_outcome result;
  result

let resolve_in ?span r policy snapshot ~subject ~mode target =
  if Trace.observing () then
    resolve_observed ?span ~mode target (fun span ->
        resolve_bare ~observed:true ~span r policy snapshot ~subject ~mode target)
  else
    resolve_bare ~observed:false ~span:(Option.value span ~default:Trace.none) r policy snapshot
      ~subject ~mode target

let resolve_chain r policy snapshot ~subject ~mode target nodes metas =
  if Trace.observing () then
    resolve_observed ~mode target (fun span ->
        decide_chain ~observed:true ~span r policy snapshot ~subject ~mode nodes metas 0)
  else
    decide_chain ~observed:false ~span:Trace.none r policy snapshot ~subject ~mode nodes metas 0

let resolve ?span r ~subject ~mode target =
  resolve_in ?span r (Reference_monitor.policy r.monitor)
    (Principal.Db.snapshot (Reference_monitor.db r.monitor))
    ~subject ~mode target

let list_dir r ~subject target =
  match resolve r ~subject ~mode:Access_mode.List target with
  | Error e -> Error e
  | Ok node ->
    if Namespace.is_dir node then
      Ok (List.map fst (Namespace.children node))
    else Error (Name_error (Namespace.Not_a_directory target))

let parent_of target =
  match Path.parent target with
  | Some parent -> Ok parent
  | None -> Error (Name_error (Namespace.Already_exists Path.root))

let attach_check r policy snapshot ~subject ~parent_node ~child_meta target =
  let label = Path.to_string target in
  match
    Reference_monitor.check_attach r.monitor policy snapshot ~subject
      ~parent:(Namespace.meta parent_node) ~child:child_meta ~object_name:label
  with
  | Decision.Granted -> Ok ()
  | Decision.Denied denial ->
    Error (Denied { at = target; label; mode = Access_mode.Write; denial })

let create_node r ~subject target ~meta insert =
  match parent_of target with
  | Error e -> Error e
  | Ok parent_path -> (
    let policy = Reference_monitor.policy r.monitor in
    let snapshot = Principal.Db.snapshot (Reference_monitor.db r.monitor) in
    match
      walk ~observed:(Trace.observing ()) ~span:Trace.none r policy snapshot ~subject
        parent_path
    with
    | Error e -> Error e
    | Ok parent_node -> (
      match attach_check r policy snapshot ~subject ~parent_node ~child_meta:meta target with
      | Error e -> Error e
      | Ok () -> (
        match insert () with
        | Ok node -> Ok node
        | Error error -> Error (Name_error error))))

let create_dir r ~subject target ~meta =
  create_node r ~subject target ~meta (fun () -> Namespace.add_dir r.namespace target ~meta)

let create_leaf r ~subject target ~meta payload =
  create_node r ~subject target ~meta (fun () ->
      Namespace.add_leaf r.namespace target ~meta payload)

(* One walk end to end.  The old shape walked to the parent and then
   re-resolved the full target from the root, re-checking [List] on
   every ancestor: duplicate audit events for each, double traversal
   cost, and a window between the two walks in which a rename could
   make them disagree about which node is being removed.  Here the
   victim is found among the parent's own entries, so every ancestor
   is checked exactly once and the parent node, the victim and the
   unlink all come from the same traversal, decided under one
   context. *)
let remove ?span r ~subject target =
  let observed = Trace.observing () in
  let span = Option.value span ~default:Trace.none in
  let policy = Reference_monitor.policy r.monitor in
  let snapshot = Principal.Db.snapshot (Reference_monitor.db r.monitor) in
  let result =
    match parent_of target with
    | Error e -> Error e
    | Ok parent_path -> (
      match walk ~observed ~span r policy snapshot ~subject parent_path with
      | Error e -> Error e
      | Ok parent_node -> (
        (* The walk checked [List] strictly above the parent; the
           parent's own [List] check guards reading its entries, as it
           would on the target walk. *)
        match check ~observed ~span r policy snapshot ~subject parent_node Access_mode.List with
        | Error e -> Error e
        | Ok () -> (
          let basename = Option.value (Path.basename target) ~default:"" in
          match Namespace.child parent_node basename with
          | exception Not_found -> Error (Name_error (missing parent_node target))
          | victim -> (
            match check ~observed ~span r policy snapshot ~subject victim Access_mode.Delete with
            | Error e -> Error e
            | Ok () -> (
              match
                attach_check r policy snapshot ~subject ~parent_node
                  ~child_meta:(Namespace.meta victim) target
              with
              | Error e -> Error e
              | Ok () -> (
                match Namespace.remove r.namespace target with
                | Ok () -> Ok ()
                | Error error -> Error (Name_error error)))))))
  in
  observe_outcome result;
  result

(* [set_acl] and [set_class]: the walk and the [Administrate] check on
   the target under one context, then the next value built from the
   current one and published under the tree's lock. *)
let administer r ~subject target next =
  let observed = Trace.observing () in
  let policy = Reference_monitor.policy r.monitor in
  let snapshot = Principal.Db.snapshot (Reference_monitor.db r.monitor) in
  match walk ~observed ~span:Trace.none r policy snapshot ~subject target with
  | Error e -> Error e
  | Ok node -> (
    match
      check ~observed ~span:Trace.none r policy snapshot ~subject node Access_mode.Administrate
    with
    | Error e -> Error e
    | Ok () ->
      Namespace.publish r.namespace node next;
      Ok ())

let set_acl r ~subject target acl = administer r ~subject target (fun meta -> Meta.with_acl meta acl)

let set_class r ~subject target klass =
  administer r ~subject target (fun meta -> Meta.with_klass meta klass)
