open Exsec_core

let equal_who a b =
  match a, b with
  | Acl.Individual x, Acl.Individual y -> Principal.equal_individual x y
  | Acl.Group x, Acl.Group y -> Principal.equal_group x y
  | Acl.Everyone, Acl.Everyone -> true
  | (Acl.Individual _ | Acl.Group _ | Acl.Everyone), _ -> false

let who_to_string = function
  | Acl.Individual ind -> "user:" ^ Principal.individual_name ind
  | Acl.Group grp -> "group:" ^ Principal.group_name grp
  | Acl.Everyone -> "everyone"

let modes_to_string modes =
  String.concat " " (List.map Access_mode.to_string (Access_mode.Set.to_list modes))

let mem_individual db ind =
  List.exists (Principal.equal_individual ind) (Principal.Db.individuals db)

let mem_group db grp = List.exists (Principal.equal_group grp) (Principal.Db.groups db)

(* Whether an entry for [who] speaks for the individual. *)
let matches db (who : Acl.who) principal =
  match who with
  | Acl.Individual ind -> Principal.equal_individual ind principal
  | Acl.Group grp -> Principal.Db.is_member db principal grp
  | Acl.Everyone -> true

(* A closed-world probe subject no entry can name: detects outcome
   changes for principals outside the database. *)
let outsider = Principal.individual "__outsider__"

let granted verdict =
  match verdict with
  | Acl.Granted _ -> true
  | Acl.Denied_by _ | Acl.No_entry -> false

let lint_object ~db ?registry ~policy ~path meta =
  let acl = meta.Meta.acl in
  let entries = Array.of_list (Acl.entries acl) in
  let finding severity kind message = Finding.make severity kind ~path message in
  let findings = ref [] in
  let note f = findings := f :: !findings in
  let flagged = Array.make (Array.length entries) false in
  (* Unknown principals: entries that can never match. *)
  Array.iter
    (fun (entry : Acl.entry) ->
      match entry.Acl.who with
      | Acl.Individual ind when not (mem_individual db ind) ->
        note
          (finding Finding.Error Finding.Unknown_principal
             (Printf.sprintf "entry names undeclared individual %S"
                (Principal.individual_name ind)))
      | Acl.Group grp when not (mem_group db grp) ->
        note
          (finding Finding.Error Finding.Unknown_principal
             (Printf.sprintf "entry names undeclared group %S" (Principal.group_name grp)))
      | Acl.Individual _ | Acl.Group _ | Acl.Everyone -> ())
    entries;
  (* Contradictory pairs: one who, both signs, overlapping modes. *)
  Array.iteri
    (fun i (a : Acl.entry) ->
      Array.iteri
        (fun j (b : Acl.entry) ->
          if j > i && equal_who a.Acl.who b.Acl.who && a.Acl.sign <> b.Acl.sign then (
            let overlap = Access_mode.Set.inter a.Acl.modes b.Acl.modes in
            if not (Access_mode.Set.is_empty overlap) then (
              flagged.(i) <- true;
              flagged.(j) <- true;
              note
                (finding Finding.Error Finding.Contradictory_entries
                   (Printf.sprintf "%s holds both allow and deny for %s (deny wins)"
                      (who_to_string a.Acl.who) (modes_to_string overlap))))))
        entries)
    entries;
  (* Redundant entries: what Acl.normalize would absorb or drop. *)
  Array.iteri
    (fun i (entry : Acl.entry) ->
      if Access_mode.Set.is_empty entry.Acl.modes then (
        flagged.(i) <- true;
        note
          (finding Finding.Info Finding.Redundant_entry
             (Printf.sprintf "entry for %s has an empty mode set" (who_to_string entry.Acl.who))))
      else (
        let earlier = ref Access_mode.Set.empty in
        Array.iteri
          (fun j (prior : Acl.entry) ->
            if j < i && equal_who prior.Acl.who entry.Acl.who && prior.Acl.sign = entry.Acl.sign
            then earlier := Access_mode.Set.union !earlier prior.Acl.modes)
          entries;
        if Access_mode.Set.subset entry.Acl.modes !earlier then (
          flagged.(i) <- true;
          note
            (finding Finding.Info Finding.Redundant_entry
               (Printf.sprintf "duplicate of an earlier %s entry for %s"
                  (match entry.Acl.sign with Acl.Allow -> "allow" | Acl.Deny -> "deny")
                  (who_to_string entry.Acl.who))))))
    entries;
  (* Shadowed entries: removing the entry changes no outcome for any
     probe subject over the entry's own modes.  Probes are every
     database individual plus the outsider; entries already explained
     by the contradictory/redundant lints are skipped. *)
  let probes = Principal.Db.individuals db @ [ outsider ] in
  let has_twin i (entry : Acl.entry) =
    (* A same-who same-sign entry elsewhere covering these modes makes
       removal trivially inert; the redundant lint already explains
       that pair, so shadow reporting would be noise. *)
    Array.to_list entries
    |> List.mapi (fun j other -> (j, other))
    |> List.exists (fun (j, (other : Acl.entry)) ->
           j <> i
           && equal_who other.Acl.who entry.Acl.who
           && other.Acl.sign = entry.Acl.sign
           && Access_mode.Set.subset entry.Acl.modes other.Acl.modes)
  in
  Array.iteri
    (fun i (entry : Acl.entry) ->
      if (not flagged.(i)) && not (has_twin i entry) then (
        let without =
          Acl.of_entries
            (List.filteri (fun j _ -> j <> i) (Array.to_list entries))
        in
        let inert =
          List.for_all
            (fun subject ->
              List.for_all
                (fun mode ->
                  granted (Acl.check ~db ~subject ~mode acl)
                  = granted (Acl.check ~db ~subject ~mode without))
                (Access_mode.Set.to_list entry.Acl.modes))
            probes
        in
        if inert then
          note
            (finding Finding.Warning Finding.Shadowed_entry
               (Printf.sprintf "entry for %s decides no access; every outcome is the same without it"
                  (who_to_string entry.Acl.who)))))
    entries;
  (* Dead grants: discretionary authority the mandatory layers refuse
     for every session of every matching registered principal (the
     analyzer's proof domain), each over one session range per
     registered principal. *)
  (match registry with
  | None -> ()
  | Some registry ->
    let snapshot = Principal.Db.snapshot db in
    let sessions =
      List.filter_map
        (fun principal ->
          Option.map
            (fun detail -> principal, Certify.range ~detail principal)
            (Clearance.detail_of registry principal))
        (Clearance.registered registry)
    in
    Array.iteri
      (fun i (entry : Acl.entry) ->
        if entry.Acl.sign = Acl.Allow && not flagged.(i) then (
          let grants =
            List.concat_map
              (fun (principal, range) ->
                if not (matches db entry.Acl.who principal) then []
                else
                  List.filter_map
                    (fun mode ->
                      match Acl.check ~db ~subject:principal ~mode acl with
                      | Acl.Granted who when equal_who who entry.Acl.who -> Some (range, mode)
                      | Acl.Granted _ | Acl.Denied_by _ | Acl.No_entry -> None)
                    (Access_mode.Set.to_list entry.Acl.modes))
              sessions
          in
          let dead (range, mode) =
            Verdict.equal
              (Certify.prove_chain ~snapshot ~policy range ~chain:[ meta ] ~mode)
              Verdict.Always_deny
          in
          if grants <> [] && List.for_all dead grants then
            note
              (finding Finding.Warning Finding.Dead_grant
                 (Printf.sprintf
                    "allow %s %s: every matching principal is refused by the mandatory policy"
                    (who_to_string entry.Acl.who)
                    (modes_to_string entry.Acl.modes)))))
      entries);
  List.rev !findings
