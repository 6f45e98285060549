open Exsec_core

type error =
  | Denied of { at : string; mode : Access_mode.t; denial : Decision.denial }
  | Unresolved of string
  | No_handler of string
  | Bad_arity of { proc : string; expected : int; got : int }
  | Bad_argument of string
  | Ext_failure of string
  | Quota_exceeded of string

let pp_error ppf = function
  | Denied { at; mode; denial } ->
    Format.fprintf ppf "access denied: %a on %s (%a)" Access_mode.pp mode at
      Decision.pp_denial denial
  | Unresolved name -> Format.fprintf ppf "unresolved name: %s" name
  | No_handler event -> Format.fprintf ppf "no handler for event %s" event
  | Bad_arity { proc; expected; got } ->
    Format.fprintf ppf "%s: expected %d argument(s), got %d" proc expected got
  | Bad_argument message -> Format.fprintf ppf "bad argument: %s" message
  | Ext_failure message -> Format.fprintf ppf "failure: %s" message
  | Quota_exceeded message -> Format.fprintf ppf "quota exceeded: %s" message

let error_to_string error = Format.asprintf "%a" pp_error error

(* THE mapping from resolver refusals to service errors.  Every layer
   that surfaces a resolution failure to an extension (kernel calls,
   handle minting, the linker, file-system services) must route
   through here so a given [Resolver.denial] always surfaces as the
   same [error] — the differential handle/path oracle depends on
   that determinism. *)
let error_of_denial = function
  | Resolver.Denied { label; mode; denial; _ } -> Denied { at = label; mode; denial }
  | Resolver.Name_error error ->
    Unresolved (Format.asprintf "%a" Namespace.pp_error error)

type ctx = {
  subject : Subject.t;
  caller : string;
  call : Path.t -> Value.t list -> (Value.t, error) result;
}

type impl = ctx -> Value.t list -> (Value.t, error) result

type proc = {
  proc_name : string;
  arity : int;
  impl : impl;
}

let proc proc_name arity impl = { proc_name; arity; impl }

let check_arity p args =
  let got = List.length args in
  if p.arity >= 0 && got <> p.arity then
    Error (Bad_arity { proc = p.proc_name; expected = p.arity; got })
  else Ok ()

let const value _ctx _args = Ok value
let fail message _ctx _args = Error (Ext_failure message)
