open Exsec_core

type import_proof = {
  import : Path.t;
  verdict : Verdict.t;
  chain : Meta.t list;
}

type cover = {
  principal : Principal.individual;
  id : int;
  row : Principal.Db.Snapshot.row;
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

type t = {
  extension : string;
  policy : Policy.t;
  db_generation : int;
  issued_at : int;
  expires_at : int option;
  profile : profile option;
  delegation : delegation option;
  covers : cover array;
  proofs : import_proof list;
}

(* The shared issuing core.  [ceiling_for] decides, per registered
   principal, whether the certificate covers it and under which
   static-class ceiling — the plain [issue] covers everyone at the
   extension's own static class, a delegation covers only principals
   the parent covers, capped by the meet with the parent's proved
   range (static-class pinning made transitive). *)
let issue_internal ~monitor ~registry ~namespace ~ceiling_for ?profile ?delegation
    ?expiry_cap ~now ~extension ~imports () =
  (* The pre-read a handle mint makes: the certificate keeps the policy
     and the snapshot its proofs read, and each proof the values it
     read, so a concurrent edit publishes a value the certificate does
     not keep.  The proofs read membership from [snapshot] alone, so its
     rows and its generation are the ones they rest on.  Each cover
     keeps its session range beside it, built once, so a proof reads
     neither the registry nor the name table. *)
  let snapshot = Principal.Db.snapshot (Reference_monitor.db monitor) in
  let policy = Reference_monitor.policy monitor in
  let cover_ranges =
    List.filter_map
      (fun principal ->
        Option.bind (Clearance.detail_of registry principal) (fun detail ->
            match ceiling_for principal with
            | `Skip -> None
            | `Ceiling static_class ->
              let range = Certify.range ?static_class ~detail principal in
              let top = range.Certify.top in
              let id = Subject.individual_id top snapshot in
              Some
                ( {
                    principal;
                    id;
                    row = Principal.Db.Snapshot.row snapshot ~individual_id:id;
                    e_max = Subject.effective_class top;
                    integrity = Subject.integrity top;
                  },
                  range )))
      (Clearance.registered registry)
  in
  (* Profile gating happens at issue time, before any proof: a mode or
     prefix outside the profile never gets past Depends, so it can
     neither certify nor admit.  An empty cover set is Depends for the
     same fail-closed reason — a fold of Verdict.both from Always_allow
     over zero covers would otherwise be a vacuous Always_allow (the
     empty-registry soundness hole). *)
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
    | None -> { import; verdict = Verdict.Depends; chain = [] }
    | Some nodes ->
      let chain = List.map Namespace.meta nodes in
      let verdict =
        if cover_ranges = [] || (not mode_admitted) || not (path_admitted import)
        then Verdict.Depends
        else
          List.fold_left
            (fun verdict (_, range) ->
              Verdict.both verdict
                (Certify.prove_chain ~snapshot ~policy range ~chain ~mode:Access_mode.Execute))
            Verdict.Always_allow cover_ranges
      in
      { import; verdict; chain }
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
  let covers = Array.of_list (List.map fst cover_ranges) in
  Array.sort (fun a b -> Int.compare a.id b.id) covers;
  {
    extension;
    policy;
    db_generation = Principal.Db.Snapshot.generation snapshot;
    issued_at = now;
    expires_at;
    profile;
    delegation;
    covers;
    proofs;
  }

let issue ~monitor ~registry ~namespace ?static_class ?profile ?(now = 0) ~extension
    ~imports () =
  issue_internal ~monitor ~registry ~namespace
    ~ceiling_for:(fun _ -> `Ceiling static_class)
    ?profile ~now ~extension ~imports ()

let fully_certified certificate =
  Array.length certificate.covers > 0
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
          Array.find_opt
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

(* Binary search of the covers, sorted by id: the index of [id]'s
   cover, or [-1].  Top-level and typed [int], so the probe allocates
   nothing and compares machine words. *)
let rec find_cover (covers : cover array) (id : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let at = (Array.unsafe_get covers mid).id in
    if at = id then mid
    else if at < id then find_cover covers id (mid + 1) hi
    else find_cover covers id lo mid

let admits_subject certificate ~db subject =
  let id = Subject.individual_id subject (Principal.Db.snapshot db) in
  id >= 0
  &&
  let i = find_cover certificate.covers id 0 (Array.length certificate.covers) in
  i >= 0
  &&
  let cover = Array.unsafe_get certificate.covers i in
  Security_class.dominates cover.e_max (Subject.effective_class subject)
  && Option.equal Security_class.equal cover.integrity (Subject.integrity subject)
  && Subject.membership_unmoved subject db ~generation:certificate.db_generation cover.row

let valid certificate ~monitor ~now =
  Reference_monitor.policy monitor == certificate.policy && not (expired certificate ~now)

let proof_holds proof metas =
  Verdict.equal proof.verdict Verdict.Always_allow && List.equal ( == ) proof.chain metas

let admits certificate ~monitor ~namespace ~subject ?(now = max_int) path =
  valid certificate ~monitor ~now
  &&
  match List.find_opt (fun proof -> Path.equal proof.import path) certificate.proofs with
  | None -> false
  | Some proof ->
    (match Namespace.chain namespace path with
    | Some nodes -> proof_holds proof (List.map Namespace.meta nodes)
    | None -> false)
    && admits_subject certificate ~db:(Reference_monitor.db monitor) subject

let pp ppf certificate =
  Format.fprintf ppf "@[<v>certificate for %s (db generation %d" certificate.extension
    certificate.db_generation;
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
  Format.fprintf ppf ", %d cover(s))" (Array.length certificate.covers);
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
