type t =
  | Always_allow
  | Always_deny
  | Depends

let equal a b =
  match a, b with
  | Always_allow, Always_allow | Always_deny, Always_deny | Depends, Depends -> true
  | (Always_allow | Always_deny | Depends), _ -> false

let both a b =
  match a, b with
  | Always_deny, _ | _, Always_deny -> Always_deny
  | Always_allow, Always_allow -> Always_allow
  | (Always_allow | Depends), _ -> Depends

let to_string = function
  | Always_allow -> "always-allow"
  | Always_deny -> "always-deny"
  | Depends -> "depends"

let pp ppf verdict = Format.pp_print_string ppf (to_string verdict)
