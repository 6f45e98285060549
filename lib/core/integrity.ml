let read_ok ~subject ~object_ = Security_class.dominates object_ subject
let write_ok ~subject ~object_ = Security_class.dominates subject object_

type denial =
  | Read_down
  | Write_up

let check ~subject ~object_ mode =
  if Access_mode.is_read_like mode then
    if read_ok ~subject ~object_ then Ok () else Error Read_down
  else if write_ok ~subject ~object_ then Ok ()
  else Error Write_up

let permits ~subject ~object_ mode =
  match check ~subject ~object_ mode with
  | Ok () -> true
  | Error _ -> false

let denial_to_string = function
  | Read_down -> "read-down (object integrity does not dominate subject)"
  | Write_up -> "write-up (subject integrity does not dominate object)"

let pp_denial ppf denial = Format.pp_print_string ppf (denial_to_string denial)
