open Exsec_core

let is_bottom klass =
  Level.rank (Security_class.level klass) = 0
  && Category.cardinal (Security_class.categories klass) = 0

let e_max ?static_class clearance =
  match static_class with
  | None -> clearance
  | Some ceiling -> Security_class.meet clearance ceiling

(* Each layer answers over the whole achievable effective-class range
   [bottom, e_max] (see the mli for the monotonicity argument); the
   layers conjoin exactly as Reference_monitor.evaluate_in conjoins
   them.  The discretionary layer is the monitor's own: the object's
   compiled ACL, with membership read from [snapshot]. *)

let dac_verdict ~snapshot ~policy ~id ~principal ~(meta : Meta.t) ~mode =
  if not policy.Policy.dac then Verdict.Always_allow
  else
    match
      Acl_compiled.check_id (Meta.compiled_in meta snapshot) ~snapshot ~id ~subject:principal
        ~mode
    with
    | Acl_compiled.Granted -> Verdict.Always_allow
    | Acl_compiled.Denied _ | Acl_compiled.No_entry -> Verdict.Always_deny

let mac_verdict ~policy ~trusted ~top ~(meta : Meta.t) ~mode =
  if not policy.Policy.mac then Verdict.Always_allow
  else if trusted && Access_mode.is_write_like mode then Verdict.Always_allow
  else if Access_mode.is_read_like mode then
    (* granted(e) iff e dominates the object: monotone increasing. *)
    if is_bottom meta.Meta.klass then Verdict.Always_allow
    else if not (Security_class.dominates top meta.Meta.klass) then Verdict.Always_deny
    else Verdict.Depends
  else (
    match policy.Policy.overwrite, mode with
    | Mac.Strict, (Access_mode.Write | Access_mode.Delete) ->
      (* granted(e) iff e equals the object's class, which the range
         contains iff the top dominates it; the range is the singleton
         {bottom} iff the top is bottom. *)
      if not (Security_class.dominates top meta.Meta.klass) then Verdict.Always_deny
      else if is_bottom top then Verdict.Always_allow
      else Verdict.Depends
    | (Mac.Strict | Mac.Liberal), _ ->
      (* granted(e) iff the object dominates e: monotone decreasing,
         always granted at bottom, so never Always_deny on its own. *)
      if Security_class.dominates meta.Meta.klass top then Verdict.Always_allow
      else Verdict.Depends)

let integrity_verdict ~policy ~trusted ~subject_integrity ~(meta : Meta.t) ~mode =
  if not policy.Policy.integrity then Verdict.Always_allow
  else
    match subject_integrity, meta.Meta.integrity with
    | None, _ | _, None -> Verdict.Always_allow
    | Some subject_integrity, Some object_integrity ->
      if trusted && Access_mode.is_write_like mode then Verdict.Always_allow
      else (
        match Integrity.check ~subject:subject_integrity ~object_:object_integrity mode with
        | Ok () -> Verdict.Always_allow
        | Error _ -> Verdict.Always_deny)

(* The per-node conjunction, the one statement [prove] and [prove_chain]
   share: the principal's registry [detail], database [id] and range
   top [top] read once by the caller, the layers in the monitor's
   order. *)
let node_verdict ~snapshot ~policy ~(detail : Clearance.detail) ~id ~principal ~top ~meta
    ~mode =
  let { Clearance.trusted; integrity; _ } = detail in
  Verdict.both
    (Verdict.both
       (dac_verdict ~snapshot ~policy ~id ~principal ~meta ~mode)
       (mac_verdict ~policy ~trusted ~top ~meta ~mode))
    (integrity_verdict ~policy ~trusted ~subject_integrity:integrity ~meta ~mode)

let prove ~snapshot ~registry ~policy ?static_class ~principal ~meta ~mode () =
  match Clearance.detail_of registry principal with
  | None -> Verdict.Depends
  | Some detail ->
    node_verdict ~snapshot ~policy ~detail
      ~id:(Principal.Db.Snapshot.individual_id snapshot principal)
      ~principal ~top:(e_max ?static_class detail.Clearance.clearance) ~meta ~mode

let prove_chain ~snapshot ~policy ~detail ~id ~principal ~top ~chain ~mode =
  let node meta mode = node_verdict ~snapshot ~policy ~detail ~id ~principal ~top ~meta ~mode in
  let rec walk verdict = function
    | [] -> verdict
    | [ target ] -> Verdict.both verdict (node target mode)
    | interior :: rest -> walk (Verdict.both verdict (node interior Access_mode.List)) rest
  in
  walk Verdict.Always_allow chain

let prove_path ~snapshot ~registry ~policy ?static_class ~principal ~chain ~mode () =
  match Clearance.detail_of registry principal, chain with
  | None, [] -> Verdict.Always_allow
  | None, _ :: _ -> Verdict.Depends
  | Some detail, _ ->
    prove_chain ~snapshot ~policy ~detail
      ~id:(Principal.Db.Snapshot.individual_id snapshot principal)
      ~principal ~top:(e_max ?static_class detail.Clearance.clearance) ~chain ~mode
