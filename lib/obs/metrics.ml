(* A process-wide registry of atomic instruments.  Everything here is
   safe under OCaml 5 domains: counters and gauges are single atomics,
   histogram buckets are arrays of atomics, and the registry tables
   are touched only under one mutex (instrument creation is cold; the
   hot operations never take a lock).

   The registry boots in {e noop} mode: every hot-path operation is a
   single [Atomic.get] on the enabled flag and an untaken branch — no
   clock read, no allocation — so embedding the instrumented kernel
   costs nothing until an operator turns collection on.  The a9
   ablation holds the instrumented/noop gap on the compiled grant path
   under its budget. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

(* gettimeofday is the only clock the toolchain ships outside bechamel;
   microsecond granularity is enough for the log-scaled buckets.  The
   value fits comfortably in OCaml's 63-bit int (~1.7e18 < 2^62). *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type counter = {
  c_name : string;
  c_cell : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_cell : int Atomic.t;
}

(* Bucket [i] holds durations [d] with [floor(log2 d) = i] (d <= 1 ns
   lands in bucket 0); 40 octaves reach ~18 minutes. *)
let bucket_count = 40

type histogram = {
  h_name : string;
  sample_shift : int;  (* time 1 of 2^shift start/stop pairs *)
  ticks : int Atomic.t;
  buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
}

let registry_lock = Mutex.create ()
let counter_table : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauge_table : (string, gauge) Hashtbl.t = Hashtbl.create 8
let histogram_table : (string, histogram) Hashtbl.t = Hashtbl.create 16

let intern table name make =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some instrument -> instrument
      | None ->
        let instrument = make () in
        Hashtbl.replace table name instrument;
        instrument)

let counter name =
  intern counter_table name (fun () -> { c_name = name; c_cell = Atomic.make 0 })

let gauge name =
  intern gauge_table name (fun () -> { g_name = name; g_cell = Atomic.make 0 })

let histogram ?(sample_shift = 0) name =
  if sample_shift < 0 then invalid_arg "Metrics.histogram: sample_shift must be >= 0";
  intern histogram_table name (fun () ->
      {
        h_name = name;
        sample_shift;
        ticks = Atomic.make 0;
        buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0;
      })

let counter_name c = c.c_name
let gauge_name g = g.g_name
let histogram_name h = h.h_name

let incr c = if Atomic.get enabled_flag then Atomic.incr c.c_cell

let add c n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell n)

let value c = Atomic.get c.c_cell
let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let floor_log2 v =
  (* v > 0 *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_of ns =
  if ns <= 1 then 0 else Stdlib.min (bucket_count - 1) (floor_log2 ns)

let observe h ns =
  if Atomic.get enabled_flag then begin
    Atomic.incr h.buckets.(bucket_of ns);
    Atomic.incr h.h_count;
    ignore (Atomic.fetch_and_add h.h_sum (Stdlib.max 0 ns))
  end

(* Returns 0 when collection is off or this tick is not sampled; the
   matching [stop_timing] treats 0 as "nothing to record", so an
   unsampled pair costs one fetch-and-add and no clock read. *)
let start_timing h =
  if not (Atomic.get enabled_flag) then 0
  else if h.sample_shift = 0 then now_ns ()
  else begin
    let tick = Atomic.fetch_and_add h.ticks 1 in
    if tick land ((1 lsl h.sample_shift) - 1) = 0 then now_ns () else 0
  end

let stop_timing h t0 = if t0 > 0 then observe h (now_ns () - t0)

let count h = Atomic.get h.h_count
let sum_ns h = Atomic.get h.h_sum

(* Percentiles are estimated from one racy-but-monotone pass over the
   bucket atomics (copied first, so the rank and the walk agree), with
   linear interpolation inside the chosen bucket.  Concurrent observes
   can at worst shift the estimate by the in-flight events. *)
let quantile h q =
  let q = Stdlib.min 1.0 (Stdlib.max 0.0 q) in
  let counts = Array.map Atomic.get h.buckets in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec walk i cum =
      if i >= bucket_count then Float.pow 2.0 (float_of_int bucket_count)
      else begin
        let here = counts.(i) in
        if cum + here >= rank then begin
          let lo = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int i) in
          let hi = Float.pow 2.0 (float_of_int (i + 1)) in
          lo +. ((hi -. lo) *. (float_of_int (rank - cum) /. float_of_int here))
        end
        else walk (i + 1) (cum + here)
      end
    in
    walk 0 0
  end

(* {1 Snapshots} *)

type histogram_summary = {
  hs_count : int;
  hs_sum_ns : int;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
}

type snapshot = {
  snap_enabled : bool;
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_summary) list;
}

let summarize h =
  {
    hs_count = count h;
    hs_sum_ns = sum_ns h;
    p50_ns = quantile h 0.5;
    p95_ns = quantile h 0.95;
    p99_ns = quantile h 0.99;
  }

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  (* The lock covers only the table walk; instrument reads are atomic
     and may trail concurrent updates, which is fine for telemetry. *)
  Mutex.protect registry_lock (fun () ->
      {
        snap_enabled = Atomic.get enabled_flag;
        counters =
          Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_cell) :: acc) counter_table []
          |> List.sort by_name;
        gauges =
          Hashtbl.fold (fun name g acc -> (name, Atomic.get g.g_cell) :: acc) gauge_table []
          |> List.sort by_name;
        histograms =
          Hashtbl.fold (fun name h acc -> (name, summarize h) :: acc) histogram_table []
          |> List.sort by_name;
      })

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counter_table;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0) gauge_table;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.ticks 0;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0)
        histogram_table)

(* {1 Rendering} *)

let pp_summary ppf s =
  Format.fprintf ppf "count=%d sum_ns=%d p50_ns=%.0f p95_ns=%.0f p99_ns=%.0f" s.hs_count
    s.hs_sum_ns s.p50_ns s.p95_ns s.p99_ns

let pp_snapshot ppf snap =
  Format.fprintf ppf "collection: %s@." (if snap.snap_enabled then "enabled" else "noop");
  Format.fprintf ppf "counters:@.";
  List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %d@." name v) snap.counters;
  if snap.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %d@." name v) snap.gauges
  end;
  Format.fprintf ppf "latency histograms:@.";
  List.iter
    (fun (name, s) -> Format.fprintf ppf "  %-28s %a@." name pp_summary s)
    snap.histograms

(* One [key=value] line per family — the shape structured log scrapers
   expect; histogram lines carry their percentiles inline. *)
let snapshot_lines snap =
  let scalar (name, v) = Printf.sprintf "%s=%d" name v in
  let scalars =
    match snap.counters @ snap.gauges with
    | [] -> []
    | kvs -> [ "metrics " ^ String.concat " " (List.map scalar kvs) ]
  in
  let latency (name, s) =
    Printf.sprintf "latency %s count=%d sum_ns=%d p50_ns=%.0f p95_ns=%.0f p99_ns=%.0f" name
      s.hs_count s.hs_sum_ns s.p50_ns s.p95_ns s.p99_ns
  in
  scalars @ List.map latency snap.histograms

let json_string s =
  let buffer = Buffer.create (String.length s + 2) in
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\t' -> Buffer.add_string buffer "\\t"
      | '\r' -> Buffer.add_string buffer "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"';
  Buffer.contents buffer

let snapshot_to_json snap =
  let buffer = Buffer.create 1024 in
  let object_of render kvs =
    Buffer.add_char buffer '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buffer ',';
        Buffer.add_string buffer (json_string name);
        Buffer.add_char buffer ':';
        render v)
      kvs;
    Buffer.add_char buffer '}'
  in
  Buffer.add_string buffer "{\"enabled\":";
  Buffer.add_string buffer (if snap.snap_enabled then "true" else "false");
  Buffer.add_string buffer ",\"counters\":";
  object_of (fun v -> Buffer.add_string buffer (string_of_int v)) snap.counters;
  Buffer.add_string buffer ",\"gauges\":";
  object_of (fun v -> Buffer.add_string buffer (string_of_int v)) snap.gauges;
  Buffer.add_string buffer ",\"histograms\":";
  object_of
    (fun s ->
      Buffer.add_string buffer
        (Printf.sprintf "{\"count\":%d,\"sum_ns\":%d,\"p50_ns\":%.0f,\"p95_ns\":%.0f,\"p99_ns\":%.0f}"
           s.hs_count s.hs_sum_ns s.p50_ns s.p95_ns s.p99_ns))
    snap.histograms;
  Buffer.add_char buffer '}';
  Buffer.contents buffer
