open Exsec_extsys

type credentials = {
  principal : string;
  secret : string option;
  level : string option;
  categories : string list;
}

type op =
  | Resolve of { path : string; mode : string }
  | Call of { path : string; args : Value.t list }
  | Open_handle of { path : string }
  | Call_handle of { handle : int; args : Value.t list }
  | Close_handle of { handle : int }
  | Read of { path : string }
  | Write of { path : string; data : string; append : bool }

type request =
  | Hello of { seq : int; creds : credentials }
  | Op of { seq : int; op : op }

type error =
  | Denied of { at : string; mode : string; denial : string }
  | Unresolved of string
  | No_handler of string
  | Bad_arity of { proc : string; expected : int; got : int }
  | Bad_argument of string
  | Ext_failure of string
  | Quota_exceeded of string
  | Auth_failed of string
  | Protocol of string

type body =
  | Hello_ok of { principal : string; klass : string }
  | Value of Value.t
  | Error of error
  | Busy of string

type response = {
  seq : int;
  body : body;
}

let max_frame = 16 * 1024 * 1024
let max_depth = 64

let error_of_service = function
  | Service.Denied { at; mode; denial } ->
    Denied
      {
        at;
        mode = Exsec_core.Access_mode.to_string mode;
        denial = Exsec_core.Decision.denial_to_string denial;
      }
  | Service.Unresolved what -> Unresolved what
  | Service.No_handler what -> No_handler what
  | Service.Bad_arity { proc; expected; got } -> Bad_arity { proc; expected; got }
  | Service.Bad_argument what -> Bad_argument what
  | Service.Ext_failure what -> Ext_failure what
  | Service.Quota_exceeded what -> Quota_exceeded what

let op_label = function
  | Resolve _ -> "resolve"
  | Call _ -> "call"
  | Open_handle _ -> "open_handle"
  | Call_handle _ -> "call_handle"
  | Close_handle _ -> "close_handle"
  | Read _ -> "read"
  | Write _ -> "write"

let pp_error ppf = function
  | Denied { at; mode; denial } ->
    Format.fprintf ppf "denied %s on %s: %s" mode at denial
  | Unresolved what -> Format.fprintf ppf "unresolved: %s" what
  | No_handler what -> Format.fprintf ppf "no handler: %s" what
  | Bad_arity { proc; expected; got } ->
    Format.fprintf ppf "bad arity: %s expects %d, got %d" proc expected got
  | Bad_argument what -> Format.fprintf ppf "bad argument: %s" what
  | Ext_failure what -> Format.fprintf ppf "extension failure: %s" what
  | Quota_exceeded what -> Format.fprintf ppf "quota exceeded: %s" what
  | Auth_failed why -> Format.fprintf ppf "authentication failed: %s" why
  | Protocol why -> Format.fprintf ppf "protocol error: %s" why

let pp_body ppf = function
  | Hello_ok { principal; klass } ->
    Format.fprintf ppf "hello-ok %s at %s" principal klass
  | Value v -> Format.fprintf ppf "value %a" Value.pp v
  | Error e -> Format.fprintf ppf "error (%a)" pp_error e
  | Busy why -> Format.fprintf ppf "busy (%s)" why

(* {1 Encoding} *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))
let w_int buf n = Buffer.add_int64_be buf (Int64.of_int n)

let w_str buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_opt_str buf = function
  | None -> w_u8 buf 0
  | Some s ->
    w_u8 buf 1;
    w_str buf s

let w_str_list buf items =
  w_int buf (List.length items);
  List.iter (w_str buf) items

let rec w_value buf = function
  | Value.Unit -> w_u8 buf 0
  | Value.Bool b ->
    w_u8 buf 1;
    w_u8 buf (if b then 1 else 0)
  | Value.Int n ->
    w_u8 buf 2;
    w_int buf n
  | Value.Str s ->
    w_u8 buf 3;
    w_str buf s
  | Value.Blob b ->
    w_u8 buf 4;
    w_str buf (Bytes.to_string b)
  | Value.Pair (a, b) ->
    w_u8 buf 5;
    w_value buf a;
    w_value buf b
  | Value.List items ->
    w_u8 buf 6;
    w_int buf (List.length items);
    List.iter (w_value buf) items

let w_values buf items =
  w_int buf (List.length items);
  List.iter (w_value buf) items

let w_op buf = function
  | Resolve { path; mode } ->
    w_u8 buf 0;
    w_str buf path;
    w_str buf mode
  | Call { path; args } ->
    w_u8 buf 1;
    w_str buf path;
    w_values buf args
  | Open_handle { path } ->
    w_u8 buf 2;
    w_str buf path
  | Call_handle { handle; args } ->
    w_u8 buf 3;
    w_int buf handle;
    w_values buf args
  | Close_handle { handle } ->
    w_u8 buf 4;
    w_int buf handle
  | Read { path } ->
    w_u8 buf 5;
    w_str buf path
  | Write { path; data; append } ->
    w_u8 buf 6;
    w_str buf path;
    w_str buf data;
    w_u8 buf (if append then 1 else 0)

let encode_request request =
  let buf = Buffer.create 64 in
  (match request with
  | Hello { seq; creds } ->
    w_u8 buf 0;
    w_int buf seq;
    w_str buf creds.principal;
    w_opt_str buf creds.secret;
    w_opt_str buf creds.level;
    w_str_list buf creds.categories
  | Op { seq; op } ->
    w_u8 buf 1;
    w_int buf seq;
    w_op buf op);
  Buffer.contents buf

let w_error buf = function
  | Denied { at; mode; denial } ->
    w_u8 buf 0;
    w_str buf at;
    w_str buf mode;
    w_str buf denial
  | Unresolved what ->
    w_u8 buf 1;
    w_str buf what
  | No_handler what ->
    w_u8 buf 2;
    w_str buf what
  | Bad_arity { proc; expected; got } ->
    w_u8 buf 3;
    w_str buf proc;
    w_int buf expected;
    w_int buf got
  | Bad_argument what ->
    w_u8 buf 4;
    w_str buf what
  | Ext_failure what ->
    w_u8 buf 5;
    w_str buf what
  | Quota_exceeded what ->
    w_u8 buf 6;
    w_str buf what
  | Auth_failed why ->
    w_u8 buf 7;
    w_str buf why
  | Protocol why ->
    w_u8 buf 8;
    w_str buf why

let encode_response { seq; body } =
  let buf = Buffer.create 64 in
  w_int buf seq;
  (match body with
  | Hello_ok { principal; klass } ->
    w_u8 buf 0;
    w_str buf principal;
    w_str buf klass
  | Value v ->
    w_u8 buf 1;
    w_value buf v
  | Error e ->
    w_u8 buf 2;
    w_error buf e
  | Busy why ->
    w_u8 buf 3;
    w_str buf why);
  Buffer.contents buf

(* {1 Decoding}

   One cursor over the payload; every read bounds-checks and raises
   [Malformed], caught at the two entry points.  Lengths are also
   sanity-capped so a hostile length prefix cannot demand a giant
   allocation, and [r_value] counts the [Pair]/[List] levels it is
   inside so a frame of nested tags cannot recurse without bound. *)

exception Malformed of string

let fail reason = raise (Malformed reason)

type reader = {
  s : string;
  mutable pos : int;
}

let need r n =
  if n < 0 || r.pos + n > String.length r.s then fail "truncated frame"

let r_u8 r =
  need r 1;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_int r =
  need r 8;
  let n = Int64.to_int (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  n

let r_len r =
  let n = r_int r in
  if n < 0 || n > max_frame then fail "bad length";
  n

let r_str r =
  let n = r_len r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | _ -> fail "bad bool"

let r_opt_str r = if r_bool r then Some (r_str r) else None

let r_list r elt =
  let n = r_len r in
  List.init n (fun _ -> elt r)

(* [depth] is the number of [Pair]/[List] levels around the value. *)
let rec r_value r depth =
  match r_u8 r with
  | 0 -> Value.Unit
  | 1 -> Value.Bool (r_bool r)
  | 2 -> Value.Int (r_int r)
  | 3 -> Value.Str (r_str r)
  | 4 -> Value.Blob (Bytes.of_string (r_str r))
  | (5 | 6) when depth >= max_depth -> fail "value nested too deep"
  | 5 ->
    let a = r_value r (depth + 1) in
    let b = r_value r (depth + 1) in
    Value.Pair (a, b)
  | 6 -> Value.List (r_list r (fun r -> r_value r (depth + 1)))
  | _ -> fail "bad value tag"

(* A closed function: reading top-level arguments allocates no
   closure beyond [r_list]'s own. *)
let r_args r = r_list r (fun r -> r_value r 0)

let r_op r =
  match r_u8 r with
  | 0 ->
    let path = r_str r in
    let mode = r_str r in
    Resolve { path; mode }
  | 1 ->
    let path = r_str r in
    let args = r_args r in
    Call { path; args }
  | 2 -> Open_handle { path = r_str r }
  | 3 ->
    let handle = r_int r in
    let args = r_args r in
    Call_handle { handle; args }
  | 4 -> Close_handle { handle = r_int r }
  | 5 -> Read { path = r_str r }
  | 6 ->
    let path = r_str r in
    let data = r_str r in
    let append = r_bool r in
    Write { path; data; append }
  | _ -> fail "bad op tag"

let r_error r =
  match r_u8 r with
  | 0 ->
    let at = r_str r in
    let mode = r_str r in
    let denial = r_str r in
    Denied { at; mode; denial }
  | 1 -> Unresolved (r_str r)
  | 2 -> No_handler (r_str r)
  | 3 ->
    let proc = r_str r in
    let expected = r_int r in
    let got = r_int r in
    Bad_arity { proc; expected; got }
  | 4 -> Bad_argument (r_str r)
  | 5 -> Ext_failure (r_str r)
  | 6 -> Quota_exceeded (r_str r)
  | 7 -> Auth_failed (r_str r)
  | 8 -> Protocol (r_str r)
  | _ -> fail "bad error tag"

let finish r value =
  if r.pos <> String.length r.s then fail "trailing bytes" else value

let decoding s f =
  match f { s; pos = 0 } with
  | value -> Ok value
  | exception Malformed reason -> Error reason

let decode_request s =
  decoding s (fun r ->
      finish r
        (match r_u8 r with
        | 0 ->
          let seq = r_int r in
          let principal = r_str r in
          let secret = r_opt_str r in
          let level = r_opt_str r in
          let categories = r_list r r_str in
          Hello { seq; creds = { principal; secret; level; categories } }
        | 1 ->
          let seq = r_int r in
          Op { seq; op = r_op r }
        | _ -> fail "bad request tag"))

let decode_response s =
  decoding s (fun r ->
      let seq = r_int r in
      let body =
        match r_u8 r with
        | 0 ->
          let principal = r_str r in
          let klass = r_str r in
          Hello_ok { principal; klass }
        | 1 -> Value (r_value r 0)
        | 2 -> Error (r_error r)
        | 3 -> Busy (r_str r)
        | _ -> fail "bad body tag"
      in
      finish r { seq; body })
