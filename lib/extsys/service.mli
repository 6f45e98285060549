(** Service procedures and the calling convention between code units.

    A service is a set of named procedures published as leaves in the
    universal name space.  An implementation receives a {!ctx}
    describing the thread of control on whose behalf it runs, plus a
    capability to call back into the kernel ([ctx.call]): a procedure
    or an event, re-checked by the reference monitor under the
    {e caller's} subject, so a service cannot be used as a deputy to
    amplify authority. *)

open Exsec_core

type error =
  | Denied of { at : string; mode : Access_mode.t; denial : Decision.denial }
      (** the reference monitor refused the access *)
  | Unresolved of string  (** the name does not exist / is not callable *)
  | No_handler of string  (** event raised, but no matching handler *)
  | Bad_arity of { proc : string; expected : int; got : int }
  | Bad_argument of string  (** argument had the wrong shape *)
  | Ext_failure of string
      (** the implementation or handler raised: every exception is
          contained as this on every call path (a [Failure] by its
          message; {!Value.Type_error} is [Bad_argument]).
          [Stack_overflow] is contained; [Out_of_memory], the whole
          process's failure rather than the extension's, propagates. *)
  | Quota_exceeded of string  (** a per-principal resource budget ran out *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val error_of_denial : Resolver.denial -> error
(** The one canonical mapping from a resolver refusal to a service
    error: [Denied] carries the denial verbatim with the path rendered,
    [Name_error] becomes [Unresolved] with the namespace error
    rendered.  Every call site that surfaces a resolution failure — the
    kernel's path and handle call paths, the linker, the installed
    services — must use this mapping, so a given refusal is always
    observed as the same error regardless of which invocation path met
    it. *)

type ctx = {
  subject : Subject.t;  (** the thread of control, effective class included *)
  caller : string;  (** name of the calling code unit *)
  call : Path.t -> Value.t list -> (Value.t, error) result;
      (** invoke another service procedure, or raise an event, as
          this subject *)
}

type impl = ctx -> Value.t list -> (Value.t, error) result
(** A procedure implementation. *)

type proc = {
  proc_name : string;
  arity : int;  (** expected argument count; [-1] means variadic *)
  impl : impl;
}

val proc : string -> int -> impl -> proc

val check_arity : proc -> Value.t list -> (unit, error) result

val const : Value.t -> impl
(** An implementation that ignores its context and arguments. *)

val fail : string -> impl
