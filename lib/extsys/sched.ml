module Metrics = Exsec_obs.Metrics

let m_quanta = Metrics.counter "sched.quanta"
let m_live_threads = Metrics.gauge "sched.live_threads"

(* Threads live in a growable array in the order they were added;
   [count] is the populated prefix.  [cursor] is the array index the
   next quantum starts scanning from, so rotation order is the stable
   insertion order and a thread dying mid-rotation cannot shift any
   other thread's position — the fairness bug in the old
   [List.nth live (cursor mod count)] scheme, where every death
   renumbered the live list and the cursor skipped or double-served
   its neighbours. *)
type t = {
  mutable slots : Thread.t array;  (* order added; indices < count populated *)
  mutable count : int;
  mutable cursor : int;  (* next index to consider; always in [0, count] *)
}

let create () = { slots = [||]; count = 0; cursor = 0 }

let add sched thread =
  (* Amortized O(1): the old [ring @ [thread]] copied the whole ring
     on every add, O(n^2) to build a population of n threads. *)
  let capacity = Array.length sched.slots in
  if sched.count = capacity then begin
    let grown = Array.make (if capacity = 0 then 8 else 2 * capacity) thread in
    Array.blit sched.slots 0 grown 0 sched.count;
    sched.slots <- grown
  end;
  sched.slots.(sched.count) <- thread;
  sched.count <- sched.count + 1

let threads sched = Array.to_list (Array.sub sched.slots 0 sched.count)
let alive sched = List.filter Thread.is_alive (threads sched)

let listed sched =
  List.filter
    (fun thread ->
      match Thread.state thread with
      | Thread.Ready | Thread.Faulted _ -> true
      | Thread.Done | Thread.Killed -> false)
    (threads sched)

let find sched id =
  let rec scan i =
    if i >= sched.count then None
    else if Thread.id sched.slots.(i) = id then Some sched.slots.(i)
    else scan (i + 1)
  in
  scan 0

(* Allocation-free live count for the gauge. *)
let live_count sched =
  let live = ref 0 in
  for i = 0 to sched.count - 1 do
    if Thread.is_alive sched.slots.(i) then incr live
  done;
  !live

let step sched =
  Metrics.set_gauge m_live_threads (live_count sched);
  (* Scan forward from the cursor (wrapping once) for the next live
     thread.  Because positions are stable, one full wrap of the
     cursor visits every live thread exactly once, however many of
     its neighbours die or join mid-rotation. *)
  let n = sched.count in
  let rec scan tried i =
    if tried >= n then None
    else
      let i = if i >= n then 0 else i in
      if Thread.is_alive sched.slots.(i) then Some i else scan (tried + 1) (i + 1)
  in
  match if n = 0 then None else scan 0 sched.cursor with
  | None -> false
  | Some i ->
    let victim = sched.slots.(i) in
    sched.cursor <- i + 1;
    Metrics.incr m_quanta;
    Thread.step victim;
    true

let run ?(max_quanta = 100_000) sched =
  let rec loop consumed =
    if consumed >= max_quanta then consumed
    else if step sched then loop (consumed + 1)
    else consumed
  in
  loop 0
