open Exsec_core

type import_proof = {
  import : Path.t;
  verdict : Verdict.t;
  target_id : int;
  chain : (Meta.t * int) list;
}

type cover = {
  principal : Principal.individual;
  e_max : Security_class.t;
  integrity : Security_class.t option;
}

type profile = {
  profile_name : string;
  allowed_modes : Access_mode.Set.t;
  allowed_prefixes : Path.t list;
  max_depth : int;
  max_validity : int option;
}

let make_profile ~name ?(modes = [ Access_mode.List; Access_mode.Execute ])
    ?(prefixes = []) ?(max_depth = 1) ?validity () =
  {
    profile_name = name;
    allowed_modes = Access_mode.Set.of_list modes;
    allowed_prefixes = prefixes;
    max_depth;
    max_validity = validity;
  }

let profile_admits_path profile path =
  profile.allowed_prefixes = []
  || List.exists (fun prefix -> Path.is_prefix prefix path) profile.allowed_prefixes

type delegation = {
  delegated_by : string;
  depth : int;
  cap : Security_class.t option;
}

type dep = {
  dep_group : Principal.group;
  dep_stamp : int;
}

type t = {
  extension : string;
  epoch : int;
  db_generation : int;
  issued_at : int;
  expires_at : int option;
  profile : profile option;
  delegation : delegation option;
  covers : cover list;
  proofs : import_proof list;
  deps : dep list;
}

(* The scoped dependency set: every group the discretionary layer of
   any proof could have consulted, with the dirty stamp it carried at
   issue time.  Acl.check resolves membership only for groups named by
   ACL entries on the proved chains, and an is_member answer through
   such a group can change only after an edit to a group in its
   member-edge closure (Principal.Db.group_closure) — so revalidating
   these stamps is exactly as strong as the old whole-database
   generation compare for this certificate, while churn anywhere else
   revokes nothing.  ACL *content* changes are outside this set on
   purpose: they bump the owning node's Meta generation, which the
   per-chain generation sweep in [admits] already catches. *)
let deps_of ~db proofs =
  let seen : (Principal.group, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun proof ->
      List.iter
        (fun ((meta : Meta.t), _generation) ->
          List.iter
            (fun (entry : Acl.entry) ->
              match entry.Acl.who with
              | Acl.Individual _ | Acl.Everyone -> ()
              | Acl.Group group ->
                List.iter
                  (fun member ->
                    if not (Hashtbl.mem seen member) then
                      Hashtbl.add seen member (Principal.Db.dirty_stamp db member))
                  (Principal.Db.group_closure db group))
            (Acl.entries meta.Meta.acl))
        proof.chain)
    proofs;
  Hashtbl.fold (fun dep_group dep_stamp acc -> { dep_group; dep_stamp } :: acc) seen []
  |> List.sort (fun a b -> Principal.compare_group a.dep_group b.dep_group)

(* The shared issuing core.  [ceiling_for] decides, per registered
   principal, whether the certificate covers it and under which
   static-class ceiling — the plain [issue] covers everyone at the
   extension's own static class, a delegation covers only principals
   the parent covers, capped by the meet with the parent's proved
   range (static-class pinning made transitive). *)
let issue_internal ~monitor ~registry ~namespace ~ceiling_for ?profile ?delegation
    ?expiry_cap ~now ~extension ~imports () =
  let db = Reference_monitor.db monitor in
  let policy = Reference_monitor.policy monitor in
  (* Pre-read every generation the proof depends on (the same
     data-then-generation discipline as Meta.compiled_acl): a concurrent
     mutation then lands a higher generation than the one recorded
     here, and [admits] rejects. *)
  let stamp = Reference_monitor.stamp monitor in
  let epoch = stamp.Reference_monitor.stamp_epoch in
  let db_generation = stamp.Reference_monitor.stamp_db_generation in
  let cover_ceilings =
    List.filter_map
      (fun principal ->
        Option.bind (Clearance.detail_of registry principal)
          (fun (detail : Clearance.detail) ->
            match ceiling_for principal with
            | `Skip -> None
            | `Ceiling static_class ->
              Some
                ( {
                    principal;
                    e_max = Certify.e_max ?static_class detail.Clearance.clearance;
                    integrity = detail.Clearance.integrity;
                  },
                  static_class )))
      (Clearance.registered registry)
  in
  (* Profile gating happens at issue time, before any proof: a mode or
     prefix outside the profile never gets past Depends, so it can
     neither certify nor admit.  An empty cover set is Depends for the
     same fail-closed reason — Verdict.all over zero covers would
     otherwise fold to a vacuous Always_allow (the empty-registry
     soundness hole). *)
  let mode_admitted =
    match profile with
    | None -> true
    | Some profile -> Access_mode.Set.mem Access_mode.Execute profile.allowed_modes
  in
  let path_admitted import =
    match profile with
    | None -> true
    | Some profile -> profile_admits_path profile import
  in
  let prove_import import =
    match Namespace.chain namespace import with
    | None -> { import; verdict = Verdict.Depends; target_id = -1; chain = [] }
    | Some nodes ->
      let chain =
        List.map
          (fun node ->
            let meta = Namespace.meta node in
            meta, Meta.generation meta)
          nodes
      in
      let metas = List.map fst chain in
      let verdict =
        if cover_ceilings = [] || (not mode_admitted) || not (path_admitted import)
        then Verdict.Depends
        else
          Verdict.all
            (List.map
               (fun (cover, static_class) ->
                 Certify.prove_path ~db ~registry ~policy ?static_class
                   ~principal:cover.principal ~chain:metas ~mode:Access_mode.Execute ())
               cover_ceilings)
      in
      let target_id =
        match List.rev metas with
        | target :: _ -> target.Meta.id
        | [] -> -1
      in
      { import; verdict; target_id; chain }
  in
  let proofs = List.map prove_import imports in
  let expires_at =
    let horizon =
      match profile with
      | Some { max_validity = Some validity; _ } -> Some (now + validity)
      | Some { max_validity = None; _ } | None -> None
    in
    match horizon, expiry_cap with
    | None, cap -> cap
    | horizon, None -> horizon
    | Some h, Some cap -> Some (min h cap)
  in
  {
    extension;
    epoch;
    db_generation;
    issued_at = now;
    expires_at;
    profile;
    delegation;
    covers = List.map fst cover_ceilings;
    proofs;
    deps = deps_of ~db proofs;
  }

let issue ~monitor ~registry ~namespace ?static_class ?profile ?(now = 0) ~extension
    ~imports () =
  issue_internal ~monitor ~registry ~namespace
    ~ceiling_for:(fun _ -> `Ceiling static_class)
    ?profile ~now ~extension ~imports ()

let fully_certified certificate =
  certificate.covers <> []
  && certificate.proofs <> []
  && List.for_all
       (fun proof -> Verdict.equal proof.verdict Verdict.Always_allow)
       certificate.proofs

let expired certificate ~now =
  match certificate.expires_at with
  | None -> false
  | Some horizon -> now >= horizon

let delegate ~monitor ~registry ~namespace ~parent ?cap ?profile ?(now = 0) ~extension
    ~imports () =
  if not (fully_certified parent) then
    Error (Printf.sprintf "parent certificate %s is not fully certified" parent.extension)
  else if expired parent ~now then
    Error (Printf.sprintf "parent certificate %s has expired" parent.extension)
  else begin
    let depth =
      (match parent.delegation with Some delegation -> delegation.depth | None -> 0) + 1
    in
    let effective_profile =
      match profile with Some _ -> profile | None -> parent.profile
    in
    match effective_profile with
    | Some p when depth > p.max_depth ->
      Error
        (Printf.sprintf "delegation depth %d exceeds profile %s cap %d" depth
           p.profile_name p.max_depth)
    | _ ->
      let ceiling_for principal =
        match
          List.find_opt
            (fun cover -> Principal.equal_individual cover.principal principal)
            parent.covers
        with
        | None -> `Skip
        | Some cover ->
          (* The child's achievable range tops out at the meet of the
             parent's proved range and the requested cap: a delegation
             can only narrow authority, never mint any. *)
          `Ceiling
            (Some
               (match cap with
               | None -> cover.e_max
               | Some cap -> Security_class.meet cover.e_max cap))
      in
      Ok
        (issue_internal ~monitor ~registry ~namespace ~ceiling_for
           ?profile:effective_profile
           ~delegation:{ delegated_by = parent.extension; depth; cap }
           ?expiry_cap:parent.expires_at ~now ~extension ~imports ())
  end

let verdict_for certificate path =
  Option.map
    (fun proof -> proof.verdict)
    (List.find_opt (fun proof -> Path.equal proof.import path) certificate.proofs)

let covered certificate subject =
  let name = Subject.principal subject in
  List.exists
    (fun cover ->
      Principal.equal_individual cover.principal name
      && Security_class.dominates cover.e_max (Subject.effective_class subject)
      && Option.equal Security_class.equal cover.integrity (Subject.integrity subject))
    certificate.covers

let deps_valid certificate ~db =
  List.for_all
    (fun dep ->
      (* A stamp above the issue-time generation means a mutation was
         in flight while the proof ran: the certificate was born stale
         and must never admit.  Otherwise the group admits while its
         stamp has not moved — every later effective edit stamps it
         strictly above the published generation at edit time, which
         is at least the issue-time generation. *)
      dep.dep_stamp <= certificate.db_generation
      && Principal.Db.dirty_stamp db dep.dep_group = dep.dep_stamp)
    certificate.deps

let valid certificate ~monitor ~now =
  Reference_monitor.policy_epoch monitor = certificate.epoch
  && (not (expired certificate ~now))
  && deps_valid certificate ~db:(Reference_monitor.db monitor)

let proof_holds proof =
  Verdict.equal proof.verdict Verdict.Always_allow
  && List.for_all (fun (meta, generation) -> Meta.generation meta = generation) proof.chain

let admitted certificate ~monitor ~namespace ~subject ?(now = max_int) path =
  if not (valid certificate ~monitor ~now) then None
  else
    match List.find_opt (fun proof -> Path.equal proof.import path) certificate.proofs with
    | Some proof when proof_holds proof -> (
      match Namespace.find namespace path with
      | Ok node
        when (Namespace.meta node).Meta.id = proof.target_id && covered certificate subject ->
        Some node
      | Ok _ | Error _ -> None)
    | Some _ | None -> None

let admits certificate ~monitor ~namespace ~subject ?now path =
  Option.is_some (admitted certificate ~monitor ~namespace ~subject ?now path)

let pp ppf certificate =
  Format.fprintf ppf "@[<v>certificate for %s (epoch %d, db generation %d"
    certificate.extension certificate.epoch certificate.db_generation;
  (match certificate.profile with
  | Some profile -> Format.fprintf ppf ", profile %s" profile.profile_name
  | None -> ());
  (match certificate.expires_at with
  | Some horizon ->
    Format.fprintf ppf ", issued @@%d expires @@%d" certificate.issued_at horizon
  | None -> ());
  (match certificate.delegation with
  | Some delegation ->
    Format.fprintf ppf ", delegated by %s depth %d" delegation.delegated_by
      delegation.depth
  | None -> ());
  Format.fprintf ppf ", %d dep(s))" (List.length certificate.deps);
  List.iter
    (fun proof ->
      Format.fprintf ppf "@,  %a: %a" Path.pp proof.import Verdict.pp proof.verdict)
    certificate.proofs;
  Format.fprintf ppf "@]"

let profile_to_json profile =
  let buffer = Buffer.create 128 in
  Buffer.add_string buffer "{\"name\":";
  Buffer.add_string buffer (Finding.json_string profile.profile_name);
  Buffer.add_string buffer ",\"modes\":[";
  List.iteri
    (fun i mode ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (Finding.json_string (Access_mode.to_string mode)))
    (Access_mode.Set.to_list profile.allowed_modes);
  Buffer.add_string buffer "],\"prefixes\":[";
  List.iteri
    (fun i prefix ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (Finding.json_string (Path.to_string prefix)))
    profile.allowed_prefixes;
  Buffer.add_string buffer "],\"max_depth\":";
  Buffer.add_string buffer (string_of_int profile.max_depth);
  Buffer.add_string buffer ",\"max_validity\":";
  (match profile.max_validity with
  | None -> Buffer.add_string buffer "null"
  | Some validity -> Buffer.add_string buffer (string_of_int validity));
  Buffer.add_char buffer '}';
  Buffer.contents buffer
