(* Measurement plumbing shared by the three workloads: the clock, the
   seeded generator, fixed-size latency samples, the span buffer, and
   the metric table main.ml prints.  Nothing here allocates per
   operation once a run is set up, so the heap a run reports does not
   grow with the number of operations it completes. *)

(* {1 Clock} *)

(* CLOCK_MONOTONIC in nanoseconds.  Not [Exsec_obs.Metrics.now_ns]:
   that one is gettimeofday in microsecond steps. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let clock_cost_ns () =
  let n = 1_000_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now_ns ()))
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

(* {1 Seeded inputs} *)

type rng = Random.State.t

let rng seed salt = Random.State.make [| seed; salt |]
let int rng n = Random.State.int rng n
let chance rng p = Random.State.float rng 1.0 < p
let pick rng a = a.(Random.State.int rng (Array.length a))

(* {1 Latency samples}

   A preallocated buffer of nanosecond samples.  When it fills, every
   other sample is dropped and the recording stride doubles, so the
   buffer always holds an evenly spaced sample of the whole run in
   constant memory. *)

type samples = {
  buf : int array;
  mutable n : int;
  mutable stride : int;
  mutable tick : int;
  mutable seen : int;
}

let samples capacity = { buf = Array.make capacity 0; n = 0; stride = 1; tick = 0; seen = 0 }

let clear s =
  s.n <- 0;
  s.stride <- 1;
  s.tick <- 0;
  s.seen <- 0

let add s v =
  s.seen <- s.seen + 1;
  s.tick <- s.tick + 1;
  if s.tick >= s.stride then begin
    s.tick <- 0;
    if s.n = Array.length s.buf then begin
      let half = s.n / 2 in
      for i = 0 to half - 1 do
        s.buf.(i) <- s.buf.((2 * i) + 1)
      done;
      s.n <- half;
      s.stride <- s.stride * 2
    end;
    s.buf.(s.n) <- v;
    s.n <- s.n + 1
  end

let sorted s =
  let a = Array.sub s.buf 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array, in the array's unit. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let i = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
    float_of_int a.(i)

(* Samples strictly above the q-quantile's rank. *)
let beyond a q =
  let n = Array.length a in
  if n = 0 then 0 else n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let p50_us s = quantile (sorted s) 0.5 /. 1e3
let p50_ns s = quantile (sorted s) 0.5

(* {1 Host speed}

   On a shared host the speed of the CPU this process runs on drifts
   by up to a third over minutes, moving every timing of a run
   together.  A fixed reference job — 1,000 lookups in a 2,048-key
   string map, the pointer chasing and comparing the program's own
   paths do — is timed between blocks of operations, and the
   bounded end-to-end timings are reported at the speed at which the
   job takes [nominal_ns].  The job allocates nothing and is timed on
   its second of two back-to-back runs, so neither the program's heap
   nor its use of the cache moves it; a change to the program shows
   in full.  The raw figures are printed beside the scaled ones. *)

module Speed = struct
  let nominal_ns = 300_000.0

  module Keys = Map.Make (String)

  let keys = Array.init 2048 (fun i -> Printf.sprintf "ref-%06d" ((i * 7919) land 0xfffff))
  let map = Array.fold_left (fun m k -> Keys.add k (String.length k) m) Keys.empty keys

  let lookups () =
    let acc = ref 0 in
    for i = 0 to 999 do
      acc := !acc + Keys.find keys.((i * 37) land 2047) map
    done;
    ignore (Sys.opaque_identity !acc)

  let total = ref 0.0
  let count = ref 0

  (* One timing of the job, in ns. *)
  let sample () =
    lookups ();
    let t0 = now_ns () in
    lookups ();
    let t = float_of_int (now_ns () - t0) in
    total := !total +. t;
    incr count;
    t

  let measure n = median_float (List.init n (fun _ -> sample ()))
  let mean_ns () = if !count = 0 then 0.0 else !total /. float_of_int !count
end

(* {1 Metrics and inputs, by name} *)

let metric_table : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metric_table name v
let get name = Hashtbl.find_opt metric_table name

(* Input properties and provenance, kept in insertion order as
   (key, JSON literal). *)
let input_list : (string * string) list ref = ref []
let note key json = input_list := (key, json) :: !input_list
let note_int key v = note key (string_of_int v)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let note_float key v = note key (json_float v)
let note_str key v = note key (Exsec_obs.Metrics.json_string v)
let inputs () = List.rev !input_list

(* {1 Outcome accounting} *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (* failed because the answer was wrong *)
  mutable first_wrong : string option;
}

let tally () = { attempted = 0; failed = 0; wrong = 0; first_wrong = None }

(* An operation whose answer differs from the generator's expectation:
   a wrong grant, a wrong denial or a wrong value. *)
let wrong t what =
  t.failed <- t.failed + 1;
  t.wrong <- t.wrong + 1;
  if t.first_wrong = None then t.first_wrong <- Some what

let merge into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.wrong <- into.wrong + t.wrong;
  if into.first_wrong = None then into.first_wrong <- t.first_wrong

(* {1 Set-up and the timed region} *)

(* Build the world [reps] times, timing each build, and keep the last.
   Earlier worlds are released (through [release]) before the next is
   built, so at most one is live. *)
let setup ~reps ~release build =
  let times = ref [] and raw = ref [] in
  let last = ref None in
  for _ = 1 to reps do
    Option.iter release !last;
    last := None;
    Gc.compact ();
    let before = Speed.measure 5 in
    let t0 = now_ns () in
    let world = build () in
    let dt = float_of_int (now_ns () - t0) /. 1e9 in
    let job = (before +. Speed.measure 5) /. 2.0 in
    raw := dt :: !raw;
    times := (dt *. Speed.nominal_ns /. job) :: !times;
    last := Some world
  done;
  set "setup_s" (median_float !times);
  note_float "setup_s_raw" (median_float !raw);
  Option.get !last

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* Live major heap after a forced full major, in MB. *)
let heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let note_gc ~ops (before : gc_mark) =
  let after = gc_mark () in
  set "gc.minor_words_per_op"
    ((after.minor_words -. before.minor_words) /. float_of_int (max 1 ops));
  set "gc.major_collections" (float_of_int (after.major_collections - before.major_collections))

(* Run [step] (which performs a block of operations and returns how
   many it completed, recording latencies into [lat]) until [seconds]
   have passed.  The region is cut into one-second slices (at least
   ten), and
   each reported figure is the median over the slices of that slice's
   figure, so a slice disturbed by the host does not move it.  Every
   [calibrate_ns] the reference job runs, outside the slice's
   operation time; each slice's figures are scaled by the median job
   time in that slice (see Speed). *)

type region = {
  ops : int;
  ops_per_s : float;
  p50_us : float;
  p99_us : float;
  raw_ops_per_s : float;
  raw_p50_us : float;
  raw_p99_us : float;
  samples : int;
  min_beyond_p99 : int; (* fewest samples above p99 in any slice *)
}

let calibrate_ns = 50_000_000

let timed_region ~seconds ~lat step =
  let slices = max 10 (int_of_float seconds) in
  let slice_ns = int_of_float (seconds *. 1e9 /. float_of_int slices) in
  let total = ref 0 and samples = ref 0 and min_beyond = ref max_int in
  let rates = ref [] and p50s = ref [] and p99s = ref [] in
  let raw_rates = ref [] and raw_p50s = ref [] and raw_p99s = ref [] in
  for _ = 1 to slices do
    clear lat;
    let s0 = now_ns () in
    let deadline = s0 + slice_ns in
    let ops = ref 0 and paused = ref 0 and jobs = ref [ Speed.sample () ] in
    let next = ref (now_ns () + calibrate_ns) in
    while now_ns () < deadline do
      ops := !ops + step ();
      let now = now_ns () in
      if now >= !next then begin
        jobs := Speed.sample () :: !jobs;
        let after = now_ns () in
        paused := !paused + (after - now);
        next := after + calibrate_ns
      end
    done;
    total := !total + !ops;
    let rate = float_of_int !ops /. (float_of_int (now_ns () - s0 - !paused) /. 1e9) in
    let a = sorted lat in
    let p50 = quantile a 0.5 /. 1e3 and p99 = quantile a 0.99 /. 1e3 in
    let scale = Speed.nominal_ns /. median_float !jobs in
    samples := !samples + Array.length a;
    min_beyond := min !min_beyond (beyond a 0.99);
    raw_rates := rate :: !raw_rates;
    raw_p50s := p50 :: !raw_p50s;
    raw_p99s := p99 :: !raw_p99s;
    rates := (rate /. scale) :: !rates;
    p50s := (p50 *. scale) :: !p50s;
    p99s := (p99 *. scale) :: !p99s
  done;
  {
    ops = !total;
    ops_per_s = median_float !rates;
    p50_us = median_float !p50s;
    p99_us = median_float !p99s;
    raw_ops_per_s = median_float !raw_rates;
    raw_p50_us = median_float !raw_p50s;
    raw_p99_us = median_float !raw_p99s;
    samples = !samples;
    min_beyond_p99 = !min_beyond;
  }

(* The end-to-end throughput and latency metrics of a region. *)
let set_region r =
  set "ops_per_s" r.ops_per_s;
  set "p50_us" r.p50_us;
  set "p99_us" r.p99_us;
  note_float "ops_per_s_raw" r.raw_ops_per_s;
  note_float "p50_us_raw" r.raw_p50_us;
  note_float "p99_us_raw" r.raw_p99_us;
  note_int "latency_samples" r.samples;
  note_int "latency_samples_beyond_p99_per_slice" r.min_beyond_p99

(* {1 Spans}

   The traced run records a span around each call the benchmark makes
   into a layer: name, start, end, parent span and request id, in
   preallocated arrays.  Spans past the capacity are counted, not
   kept.  A span's self time is its duration minus the time its
   children cover; children never overlap, since each request runs on
   one domain. *)

module Spans = struct
  let capacity = 1 lsl 18
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_of = Array.make 64 ""

  (* Allocated by [start_tracing], so untraced runs do not carry them. *)
  let name_id = ref [||]
  let start = ref [||]
  let stop = ref [||]
  let parent = ref [||]
  let request = ref [||]
  let len = ref 0
  let dropped = ref 0
  let on = ref false

  let start_tracing () =
    if Array.length !name_id = 0 then begin
      name_id := Array.make capacity 0;
      start := Array.make capacity 0;
      stop := Array.make capacity 0;
      parent := Array.make capacity (-1);
      request := Array.make capacity 0
    end;
    on := true

  let stop_tracing () = on := false

  let intern name =
    match Hashtbl.find_opt names name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length names in
      Hashtbl.replace names name id;
      name_of.(id) <- name;
      id

  (* Returns the span index, or -1 when tracing is off or full.  A
     child span carries its parent's request id. *)
  let enter id ~parent:p ~req =
    if not !on then -1
    else if !len >= capacity then begin
      incr dropped;
      -1
    end
    else begin
      let i = !len in
      len := i + 1;
      !name_id.(i) <- id;
      !parent.(i) <- p;
      !request.(i) <- (if p >= 0 then !request.(p) else req);
      !stop.(i) <- 0;
      !start.(i) <- now_ns ();
      i
    end

  let leave i = if i >= 0 then !stop.(i) <- now_ns ()

  (* Per-name (count, total ns, self ns). *)
  let summary () =
    let n = !len in
    let parent = !parent and start = !start and stop = !stop and name_id = !name_id in
    let child = Array.make n 0 in
    for i = 0 to n - 1 do
      let p = parent.(i) in
      if p >= 0 then child.(p) <- child.(p) + (stop.(i) - start.(i))
    done;
    let k = Hashtbl.length names in
    let count = Array.make k 0 and total = Array.make k 0 and self = Array.make k 0 in
    for i = 0 to n - 1 do
      let id = name_id.(i) in
      let d = stop.(i) - start.(i) in
      count.(id) <- count.(id) + 1;
      total.(id) <- total.(id) + d;
      self.(id) <- self.(id) + (d - child.(i))
    done;
    List.init k (fun id -> name_of.(id), count.(id), total.(id), self.(id))

  let write path =
    let parent = !parent and start = !start and stop = !stop and name_id = !name_id in
    let request = !request in
    let oc = open_out path in
    output_string oc "{\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"names\":[";
    output_string oc
      (String.concat "," (List.init (Hashtbl.length names) (fun id ->
           Exsec_obs.Metrics.json_string name_of.(id))));
    Printf.fprintf oc "],\"dropped\":%d,\"spans\":[" !dropped;
    let t0 = if !len > 0 then start.(0) else 0 in
    for i = 0 to !len - 1 do
      if i > 0 then output_char oc ',';
      Printf.fprintf oc "[%d,%d,%d,%d,%d]" name_id.(i) (start.(i) - t0) (stop.(i) - t0)
        parent.(i) request.(i)
    done;
    output_string oc "]}\n";
    close_out oc
end

(* Time one call into a layer into [samples], inside a span of that
   layer when tracing is on. *)
let layer span ~parent samples f =
  let i = Spans.enter span ~parent ~req:0 in
  let t0 = now_ns () in
  let r = f () in
  add samples (now_ns () - t0);
  Spans.leave i;
  r

(* {1 Per-layer figures from the program's own counters}

   Read after a traced region, which starts from [Metrics.reset]. *)

let counter name = float_of_int (Exsec_obs.Metrics.value (Exsec_obs.Metrics.counter name))

let set_counter_metrics ~ops =
  let per_op name = counter name /. float_of_int (max 1 ops) in
  let ratio a b = counter a /. Float.max 1.0 (counter b) in
  set "resolver.resolves_per_op" (per_op "resolver.resolves");
  set "monitor.decisions_per_op" (per_op "monitor.decisions");
  set "audit.records_per_op" (per_op "audit.records");
  set "monitor.denied_frac" (ratio "monitor.denied" "monitor.decisions");
  set "handle.hit_ratio" (ratio "handle.hits" "handle.calls");
  set "kernel.cert_fast_path_ratio" (ratio "kernel.cert_fast_path" "kernel.calls")

(* Decision-cache figures between two [Kernel.cache_stats] readings. *)
let set_cache_metrics ~edits (before : Exsec_core.Decision_cache.stats option) after =
  match before, after with
  | Some a, Some b ->
    let hits = b.Exsec_core.Decision_cache.hits - a.hits and misses = b.misses - a.misses in
    set "cache.hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    if edits > 0 then
      set "cache.invalidations_per_edit" (float_of_int (b.invalidations - a.invalidations) /. float_of_int edits)
  | _ -> ()

(* {1 Name-space shape} *)

(* Mean entries per directory walked by resolutions of the paths. *)
let set_width_walked ns paths =
  let rec go node (entries, dirs) = function
    | [] -> entries, dirs
    | segment :: rest ->
      let children = Exsec_core.Namespace.children node in
      go (List.assoc segment children) (entries + List.length children, dirs + 1) rest
  in
  let entries, dirs =
    List.fold_left
      (fun acc path -> go (Exsec_core.Namespace.root ns) acc (Exsec_core.Path.segments path))
      (0, 0) paths
  in
  set "resolver.width_walked" (float_of_int entries /. float_of_int (max 1 dirs))
