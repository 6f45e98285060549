type t = {
  dac : bool;
  mac : bool;
  integrity : bool;
  overwrite : Mac.overwrite_rule;
}

let default = { dac = true; mac = true; integrity = true; overwrite = Mac.Strict }
let dac_only = { default with mac = false; integrity = false }
let mac_only = { default with dac = false }
let unchecked = { default with dac = false; mac = false; integrity = false }
let no_integrity = { default with integrity = false }
let with_recheck policy = policy

let pp ppf policy =
  Format.fprintf ppf "{dac=%b; mac=%b; integrity=%b; overwrite=%s}" policy.dac policy.mac
    policy.integrity
    (match policy.overwrite with Mac.Liberal -> "liberal" | Mac.Strict -> "strict")
