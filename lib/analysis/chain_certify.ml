open Exsec_core

type classification =
  | Redundant
  | Denied
  | Dependent

let classification_to_string = function
  | Redundant -> "provably-redundant"
  | Denied -> "provably-denied"
  | Dependent -> "runtime-dependent"

type context = {
  cx_principal : Principal.individual;
  cx_cap : Security_class.t option;
  cx_verdict : Verdict.t;
}

type site_report = {
  sr_target : string;
  sr_classification : classification;
  sr_contexts : context list;
}

type report = {
  sites : site_report list;
  findings : Finding.t list;
}

let cap_key = function
  | None -> "-"
  | Some klass -> Format.asprintf "%a" Security_class.pp klass

let same_context p cap p' cap' =
  Principal.equal_individual p p' && Option.equal Security_class.equal cap cap'

(* A node or site paired with a context, compared as [same_context]
   compares contexts.  The hash leaves the ceiling out: contexts that
   differ only in it are rare (one principal entering at two ceilings)
   and merely share a bucket. *)
module Visit = Hashtbl.Make (struct
  type t = string * Principal.individual * Security_class.t option

  let equal (n, p, cap) (n', p', cap') = String.equal n n' && same_context p cap p' cap'
  let hash (n, p, _) = Hashtbl.hash (n, Principal.individual_name p)
end)

let render_modes modes =
  String.concat "/" (List.map Access_mode.to_string (Access_mode.Set.to_list modes))

let analyze ~db ~registry ~policy ?(objects = []) (g : Callgraph.t) =
  (* Every proof reads membership from one snapshot, as the monitor
     does; the over-privilege pass reads the database itself. *)
  let snapshot = Principal.Db.snapshot db in
  (* Out-edges by source node: the destination and, on a call site, the
     site with its path rendered once. *)
  let out : (string, (string * (string * Callgraph.site) option) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (e : Callgraph.edge) ->
      let call =
        Option.map (fun site -> Path.to_string site.Callgraph.target, site) e.Callgraph.site
      in
      let sofar = Option.value ~default:[] (Hashtbl.find_opt out e.Callgraph.src) in
      Hashtbl.replace out e.Callgraph.src ((e.Callgraph.dst, call) :: sofar))
    g.Callgraph.edges;
  (* The worklist fixpoint over (node, principal, ceiling): each pair is
     queued once, when it first arrives, and processed once.  Every
     ceiling is an entry's, so the pairs are finitely many. *)
  let arrived : unit Visit.t = Visit.create 64 in
  let worklist = Queue.create () in
  let arrive node p cap =
    let visit = node, p, cap in
    if not (Visit.mem arrived visit) then begin
      Visit.add arrived visit ();
      Queue.push visit worklist
    end
  in
  List.iter
    (fun (en : Callgraph.entry) ->
      arrive en.Callgraph.entry_node en.Callgraph.entry_principal en.Callgraph.entry_cap)
    g.Callgraph.entries;
  (* One proof per (site, principal, ceiling): the first edge to reach
     a site under a context proves it and records the context. *)
  let verdicts : Verdict.t Visit.t = Visit.create 64 in
  let site_records : (string, context list ref) Hashtbl.t = Hashtbl.create 16 in
  let verdict_at target (site : Callgraph.site) p cap =
    let visit = target, p, cap in
    match Visit.find_opt verdicts visit with
    | Some verdict -> verdict
    | None ->
      let verdict =
        match site.Callgraph.chain with
        | [] -> Verdict.Depends
        | chain ->
          Certify.prove_path ~snapshot ~registry ~policy ?static_class:cap ~principal:p
            ~chain ~mode:Access_mode.Execute ()
      in
      Visit.add verdicts visit verdict;
      let r =
        match Hashtbl.find_opt site_records target with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.add site_records target r;
          r
      in
      r := { cx_principal = p; cx_cap = cap; cx_verdict = verdict } :: !r;
      verdict
  in
  while not (Queue.is_empty worklist) do
    let node, p, cap = Queue.pop worklist in
    List.iter
      (fun (dst, call) ->
        match call with
        | None -> arrive dst p cap
        | Some (target, site) ->
          (* A provably dead edge transmits no control: nothing past it
             is reachable through this chain. *)
          if not (Verdict.equal (verdict_at target site p cap) Verdict.Always_deny) then
            arrive dst p cap)
      (Option.value ~default:[] (Hashtbl.find_opt out node))
  done;
  let sites =
    Hashtbl.fold
      (fun target r acc ->
        let sr_contexts =
          List.sort
            (fun a b ->
              let c =
                compare
                  (Principal.individual_name a.cx_principal)
                  (Principal.individual_name b.cx_principal)
              in
              if c <> 0 then c else compare (cap_key a.cx_cap) (cap_key b.cx_cap))
            !r
        in
        let sr_classification =
          if
            List.for_all
              (fun c -> Verdict.equal c.cx_verdict Verdict.Always_allow)
              sr_contexts
          then Redundant
          else if
            List.for_all
              (fun c -> Verdict.equal c.cx_verdict Verdict.Always_deny)
              sr_contexts
          then Denied
          else Dependent
        in
        { sr_target = target; sr_classification; sr_contexts } :: acc)
      site_records []
    |> List.sort (fun a b -> compare a.sr_target b.sr_target)
  in
  let chain_finding sr =
    let n = List.length sr.sr_contexts in
    match sr.sr_classification with
    | Denied ->
      Finding.make Finding.Error Finding.Chain_denied ~path:sr.sr_target
        (Printf.sprintf
           "dead edge: provably denied for every reaching chain (%d context(s))" n)
    | Redundant ->
      Finding.make Finding.Info Finding.Chain_redundant ~path:sr.sr_target
        (Printf.sprintf
           "monitor check provably redundant along every reaching chain (%d context(s))"
           n)
    | Dependent ->
      Finding.make Finding.Info Finding.Chain_dependent ~path:sr.sr_target
        (Printf.sprintf "runtime-dependent: verdict varies across %d reaching context(s)"
           n)
  in
  let reachable_targets = List.map (fun sr -> sr.sr_target) sites in
  let over_privilege =
    List.concat_map
      (fun (path, meta) ->
        let is_target = List.mem path reachable_targets in
        let is_interior =
          List.exists (fun target -> Callgraph.strict_ancestor path target) reachable_targets
        in
        if not (is_target || is_interior) then []
        else begin
          let needed =
            let base = Access_mode.Set.singleton Access_mode.List in
            if is_target then Access_mode.Set.add Access_mode.Execute base else base
          in
          List.filter_map
            (fun p ->
              if Principal.equal_individual p meta.Meta.owner then None
              else
                match Clearance.detail_of registry p with
                | None -> None
                | Some detail when detail.Clearance.trusted -> None
                | Some _ ->
                  let granted = Acl.modes_of ~db ~subject:p meta.Meta.acl in
                  let excess = Access_mode.Set.diff granted needed in
                  if Access_mode.Set.is_empty excess then None
                  else
                    Some
                      (Finding.make Finding.Warning Finding.Over_privilege ~path
                         ~principal:(Principal.individual_name p)
                         (Printf.sprintf
                            "granted %s beyond any mode reachable through the call \
                             graph (chains need %s)"
                            (render_modes excess) (render_modes needed))))
            (Clearance.registered registry)
        end)
      objects
  in
  let findings =
    Finding.normalize (List.map chain_finding sites @ over_privilege)
  in
  { sites; findings }

let redundant_targets report =
  List.filter_map
    (fun sr ->
      if sr.sr_classification = Redundant then Some (Path.of_string sr.sr_target)
      else None)
    report.sites

let pp_site ppf sr =
  Format.fprintf ppf "%-30s %-18s %d context(s)" sr.sr_target
    (classification_to_string sr.sr_classification)
    (List.length sr.sr_contexts)

let sites_to_json report =
  let buffer = Buffer.create 512 in
  Buffer.add_char buffer '[';
  List.iteri
    (fun i sr ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer "{\"target\":";
      Buffer.add_string buffer (Finding.json_string sr.sr_target);
      Buffer.add_string buffer ",\"classification\":";
      Buffer.add_string buffer
        (Finding.json_string (classification_to_string sr.sr_classification));
      Buffer.add_string buffer ",\"contexts\":[";
      List.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char buffer ',';
          Buffer.add_string buffer "{\"principal\":";
          Buffer.add_string buffer
            (Finding.json_string (Principal.individual_name c.cx_principal));
          Buffer.add_string buffer ",\"ceiling\":";
          (match c.cx_cap with
          | None -> Buffer.add_string buffer "null"
          | Some klass ->
            Buffer.add_string buffer
              (Finding.json_string (Format.asprintf "%a" Security_class.pp klass)));
          Buffer.add_string buffer ",\"verdict\":";
          Buffer.add_string buffer (Finding.json_string (Verdict.to_string c.cx_verdict));
          Buffer.add_char buffer '}')
        sr.sr_contexts;
      Buffer.add_string buffer "]}")
    report.sites;
  Buffer.add_char buffer ']';
  Buffer.contents buffer

(* What the lifecycle adds on top of the chain verdicts: given a
   certificate profile, which provably-redundant sites a certificate
   issued under it would actually cover.  Pure reporting — the
   enforcement itself lives in Certificate.issue. *)
let lifecycle_to_json ~profile report =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer "{\"profile\":";
  Buffer.add_string buffer (Certificate.profile_to_json profile);
  Buffer.add_string buffer ",\"sites\":[";
  List.iteri
    (fun i sr ->
      if i > 0 then Buffer.add_char buffer ',';
      let mode_ok =
        Access_mode.Set.mem Access_mode.Execute profile.Certificate.allowed_modes
      in
      let path_ok =
        Certificate.profile_admits_path profile (Path.of_string sr.sr_target)
      in
      let certifiable, reason =
        if sr.sr_classification <> Redundant then false, "not provably redundant"
        else if not mode_ok then false, "execute outside profile modes"
        else if not path_ok then false, "outside profile prefixes"
        else true, "within profile"
      in
      Buffer.add_string buffer "{\"target\":";
      Buffer.add_string buffer (Finding.json_string sr.sr_target);
      Buffer.add_string buffer ",\"certifiable\":";
      Buffer.add_string buffer (string_of_bool certifiable);
      Buffer.add_string buffer ",\"reason\":";
      Buffer.add_string buffer (Finding.json_string reason);
      Buffer.add_char buffer '}')
    report.sites;
  Buffer.add_string buffer "]}";
  Buffer.contents buffer
