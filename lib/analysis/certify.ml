open Exsec_core

type range = {
  top : Subject.t;
  bottom : Subject.t;
}

let range ?static_class ~(detail : Clearance.detail) principal =
  let top =
    Subject.make ?ceiling:static_class ~trusted:detail.trusted ?integrity:detail.integrity
      principal detail.clearance
  in
  { top; bottom = Subject.with_ceiling top (Security_class.bottom_of detail.clearance) }

let granted policy subject ~meta ~mode =
  match Reference_monitor.mandatory policy ~subject ~meta ~mode with
  | Decision.Granted -> true
  | Decision.Denied _ -> false

(* The monitor's own halves at the corners of the range (see the mli
   for why the corners decide it).  The discretionary half reads no
   class, so the top alone answers it.  Strict overwrite grants at the
   object's class alone, so when neither corner grants, the range's
   meet with that class settles whether any session inside does. *)
let node_verdict ~snapshot ~policy range ~(meta : Meta.t) ~mode =
  match Reference_monitor.discretionary snapshot policy ~subject:range.top ~meta ~mode with
  | Decision.Denied _ -> Verdict.Always_deny
  | Decision.Granted -> (
    match granted policy range.top ~meta ~mode, granted policy range.bottom ~meta ~mode with
    | true, true -> Verdict.Always_allow
    | true, false | false, true -> Verdict.Depends
    | false, false ->
      if granted policy (Subject.with_ceiling range.top meta.Meta.klass) ~meta ~mode then
        Verdict.Depends
      else Verdict.Always_deny)

let prove_chain ~snapshot ~policy range ~chain ~mode =
  let node meta mode = node_verdict ~snapshot ~policy range ~meta ~mode in
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
    prove_chain ~snapshot ~policy (range ?static_class ~detail principal) ~chain ~mode

let prove ~snapshot ~registry ~policy ?static_class ~principal ~meta ~mode () =
  prove_path ~snapshot ~registry ~policy ?static_class ~principal ~chain:[ meta ] ~mode ()
