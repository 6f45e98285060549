(** The request/response wire protocol of the serve front end.

    Every message travels as one length-prefixed frame (the transport
    owns the framing; this module owns the payload bytes).  A
    connection opens with a {!Hello} carrying the client's claimed
    credentials; once the server has authenticated them and minted the
    connection's {!Exsec_core.Subject.t}, every further frame is an
    {!Op} against the kernel: resolve a name, call a procedure, open /
    call / close a capability handle, or read / write a served data
    object (a memfs file or the syslog).

    Encoding is a compact tag-prefixed binary form: 8-byte big-endian
    ints, length-prefixed strings, one tag byte per variant.  Decoders
    never throw on hostile bytes — a malformed frame comes back as
    [Error reason], which the server answers with {!Protocol} and a
    close.  Responses echo the request's sequence number so a client
    may verify exact request/response conservation (the serve test
    suite and the load generator both do). *)

open Exsec_extsys

(** {1 Requests} *)

type credentials = {
  principal : string;  (** must name a registered {!Exsec_core.Principal.Db} individual *)
  secret : string option;
      (** demanded when the kernel has a {!Exsec_core.Clearance}
          registry and the principal is registered with a secret *)
  level : string option;  (** requested session level; [None] = default *)
  categories : string list;  (** requested session categories *)
}

type op =
  | Resolve of { path : string; mode : string }
      (** probe an access decision; answers the node kind *)
  | Call of { path : string; args : Value.t list }
  | Open_handle of { path : string }
      (** answers a connection-scoped handle id as [Int] *)
  | Call_handle of { handle : int; args : Value.t list }
  | Close_handle of { handle : int }
  | Read of { path : string }  (** a memfs file or the syslog data object *)
  | Write of { path : string; data : string; append : bool }

type request =
  | Hello of { seq : int; creds : credentials }
  | Op of { seq : int; op : op }

(** {1 Responses} *)

(** Service errors crossing the wire: the same shape as
    {!Service.error} with the structured denial rendered to text (the
    denial's constructors reach deep into the policy vocabulary;
    clients get the monitor's own rendering verbatim). *)
type error =
  | Denied of { at : string; mode : string; denial : string }
  | Unresolved of string
  | No_handler of string
  | Bad_arity of { proc : string; expected : int; got : int }
  | Bad_argument of string
  | Ext_failure of string
  | Quota_exceeded of string
  | Auth_failed of string  (** the Hello was refused *)
  | Protocol of string  (** malformed frame / Op before Hello / double Hello *)

type body =
  | Hello_ok of { principal : string; klass : string }
  | Value of Value.t
  | Error of error
  | Busy of string
      (** quota backpressure: the connection's principal is over its
          invocation budget.  The connection stays open — retry or
          back off; never a dropped socket. *)

type response = {
  seq : int;  (** echo of the request's sequence number *)
  body : body;
}

val error_of_service : Service.error -> error
(** The wire rendering of a kernel-side error.  Composes with
    {!Service.error_of_denial}: a given monitor refusal always crosses
    the wire as the same bytes, whichever op met it. *)

val op_label : op -> string
(** The endpoint name used in metrics: ["resolve"], ["call"],
    ["call_handle"], ["open_handle"], ["close_handle"], ["read"],
    ["write"]. *)

val pp_error : Format.formatter -> error -> unit
val pp_body : Format.formatter -> body -> unit

(** {1 Codec}

    [decode_* (encode_* x) = Ok x] for every [x] whose values nest at
    most {!max_depth} deep; decoders return [Error reason] on trailing
    bytes, truncation, bad tags or lengths, and too-deep values. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val max_frame : int
(** Upper bound on an accepted frame's payload size (16 MiB); both
    transports refuse larger frames rather than allocating them. *)

val max_depth : int
(** Upper bound on how deeply a decoded {!Value.t} nests [Pair] and
    [List] (64; a scalar is depth 0).  Both decoders refuse a deeper
    value with [Error "value nested too deep"], so one frame of nested
    tags cannot recurse the decoder once per byte. *)
