type overwrite_rule =
  | Liberal
  | Strict

let[@inline] read_ok ~subject ~object_ = Security_class.dominates subject object_
let[@inline] write_ok ~subject ~object_ = Security_class.dominates object_ subject

type denial =
  | Read_up
  | Write_down
  | Blind_overwrite

let[@inline] check ~rule ~subject ~object_ mode =
  if Access_mode.is_read_like mode then
    if read_ok ~subject ~object_ then Ok () else Error Read_up
  else if not (write_ok ~subject ~object_) then Error Write_down
  else
    match rule, mode with
    | Strict, (Access_mode.Write | Access_mode.Delete)
      when not (Security_class.equal subject object_) ->
      Error Blind_overwrite
    | (Strict | Liberal), _ -> Ok ()

let permits ~rule ~subject ~object_ mode =
  match check ~rule ~subject ~object_ mode with
  | Ok () -> true
  | Error _ -> false

let denial_to_string = function
  | Read_up -> "read-up (subject class does not dominate object)"
  | Write_down -> "write-down (object class does not dominate subject)"
  | Blind_overwrite -> "blind overwrite (strict rule requires equal classes; use write-append)"

let pp_denial ppf denial = Format.pp_print_string ppf (denial_to_string denial)
