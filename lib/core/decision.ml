type denial =
  | Dac_no_entry
  | Dac_explicit_deny of Acl.who
  | Mac_denied of Mac.denial
  | Integrity_denied of Integrity.denial
  | Not_an_object
  | Path_denied of string

type t =
  | Granted
  | Denied of denial

let is_granted = function
  | Granted -> true
  | Denied _ -> false

let equal_denial a b =
  match a, b with
  | Dac_no_entry, Dac_no_entry -> true
  | Dac_explicit_deny wa, Dac_explicit_deny wb -> (
    match wa, wb with
    | Acl.Individual i, Acl.Individual j -> Principal.equal_individual i j
    | Acl.Group g, Acl.Group h -> Principal.equal_group g h
    | Acl.Everyone, Acl.Everyone -> true
    | (Acl.Individual _ | Acl.Group _ | Acl.Everyone), _ -> false)
  | Mac_denied da, Mac_denied db -> da = db
  | Integrity_denied da, Integrity_denied db -> da = db
  | Not_an_object, Not_an_object -> true
  | Path_denied a, Path_denied b -> String.equal a b
  | ( ( Dac_no_entry | Dac_explicit_deny _ | Mac_denied _ | Integrity_denied _
      | Not_an_object | Path_denied _ ),
      _ ) ->
    false

let equal a b =
  match a, b with
  | Granted, Granted -> true
  | Denied da, Denied db -> equal_denial da db
  | (Granted | Denied _), _ -> false

let who_to_string = function
  | Acl.Individual ind -> "user " ^ Principal.individual_name ind
  | Acl.Group grp -> "group " ^ Principal.group_name grp
  | Acl.Everyone -> "everyone"

let denial_to_string = function
  | Dac_no_entry -> "no matching ACL entry"
  | Dac_explicit_deny who -> "explicit ACL deny for " ^ who_to_string who
  | Mac_denied denial -> "MAC: " ^ Mac.denial_to_string denial
  | Integrity_denied denial -> "integrity: " ^ Integrity.denial_to_string denial
  | Not_an_object -> "no such object"
  | Path_denied node -> "traversal refused at " ^ node

let pp_denial ppf denial = Format.pp_print_string ppf (denial_to_string denial)

let pp ppf = function
  | Granted -> Format.pp_print_string ppf "granted"
  | Denied denial -> Format.fprintf ppf "denied (%a)" pp_denial denial

let to_result = function
  | Granted -> Ok ()
  | Denied denial -> Error denial

let of_result = function
  | Ok () -> Granted
  | Error denial -> Denied denial
