(* Lightweight per-call trace spans with a bounded ring of recent
   completions.  Tracing is off by default and independently switched
   from metrics: a span handle is [None] when tracing is off, so the
   instrumented hot path pays one atomic load and allocates nothing.

   A span is mutated only by the domain that started it; publication
   happens in [finish], which hands the span to the ring under the
   ring mutex.  Readers ([tail]) only ever see finished spans. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  mutable duration_ns : int;  (* -1 while open *)
  mutable fields : (string * string) list;  (* newest first *)
}

type handle = span option

let none : handle = None

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

let observing () = Metrics.enabled () || Atomic.get enabled_flag

let next_id = Atomic.make 0

type ring = {
  lock : Mutex.t;
  mutable slots : span option array;
  mutable cursor : int;  (* spans ever finished *)
}

let default_capacity = 256

let ring = { lock = Mutex.create (); slots = Array.make default_capacity None; cursor = 0 }

let capacity () = Mutex.protect ring.lock (fun () -> Array.length ring.slots)

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Mutex.protect ring.lock (fun () ->
      ring.slots <- Array.make n None;
      ring.cursor <- 0)

let clear () =
  Mutex.protect ring.lock (fun () ->
      Array.fill ring.slots 0 (Array.length ring.slots) None;
      ring.cursor <- 0)

let start name : handle =
  if not (Atomic.get enabled_flag) then None
  else
    Some
      {
        id = Atomic.fetch_and_add next_id 1;
        name;
        start_ns = Metrics.now_ns ();
        duration_ns = -1;
        fields = [];
      }

let active = function
  | None -> false
  | Some _ -> true

let annotate handle key value =
  match handle with
  | None -> ()
  | Some span -> span.fields <- (key, value) :: span.fields

let finish handle =
  match handle with
  | None -> ()
  | Some span ->
    span.duration_ns <- Metrics.now_ns () - span.start_ns;
    Mutex.protect ring.lock (fun () ->
        let cap = Array.length ring.slots in
        ring.slots.(ring.cursor mod cap) <- Some span;
        ring.cursor <- ring.cursor + 1)

let span_id span = span.id
let span_name span = span.name
let span_duration_ns span = span.duration_ns

let span_fields span =
  (* Annotation order, oldest first. *)
  List.rev span.fields

let tail ?count () =
  Mutex.protect ring.lock (fun () ->
      let cap = Array.length ring.slots in
      let retained = Stdlib.min ring.cursor cap in
      let want =
        match count with
        | None -> retained
        | Some n -> Stdlib.min retained (Stdlib.max 0 n)
      in
      let out = ref [] in
      for i = ring.cursor - want to ring.cursor - 1 do
        match ring.slots.(i mod cap) with
        | Some span -> out := span :: !out
        | None -> ()
      done;
      List.rev !out)

let pp_span ppf span =
  Format.fprintf ppf "#%d %s %.1fus" span.id span.name
    (float_of_int span.duration_ns /. 1e3);
  List.iter (fun (key, value) -> Format.fprintf ppf " %s=%s" key value) (span_fields span)

let span_to_line span = Format.asprintf "%a" pp_span span

let span_to_json span =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "{\"id\":%d,\"name\":%s,\"duration_ns\":%d,\"fields\":{" span.id
       (Metrics.json_string span.name) span.duration_ns);
  List.iteri
    (fun i (key, value) ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (Metrics.json_string key);
      Buffer.add_char buffer ':';
      Buffer.add_string buffer (Metrics.json_string value))
    (span_fields span);
  Buffer.add_string buffer "}}";
  Buffer.contents buffer
