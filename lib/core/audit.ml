module Metrics = Exsec_obs.Metrics

let m_records = Metrics.counter "audit.records"
let m_record_ns = Metrics.histogram ~sample_shift:4 "audit.record_ns"

type event = {
  seq : int;
  subject : Subject.t;
  object_name : string;
  object_id : int;
  object_class : Security_class.t;
  mode : Access_mode.t;
  decision : Decision.t;
}

(* One ring indexed by the global sequence number: event [seq] lives in
   slot [seq land mask], so the slot a record writes is fixed by the
   [fetch_and_add] that numbers it, and no lock or cursor is needed.
   The slot count is a power of two, so the index is a mask, not a
   division, and always in bounds.  Each slot is an atomic cell so a
   write can be a compare-and-set (see [publish]).  Only denials are
   counted; grants are [next_seq - denied]. *)
type t = {
  ring : event Atomic.t array;
  mask : int;  (* slot count - 1 *)
  capacity : int;  (* events retained: at most the slot count *)
  next_seq : int Atomic.t;  (* sequence numbers issued *)
  denied : int Atomic.t;
}

(* What an empty slot holds: no sequence number is negative, so no
   read ever expects it. *)
let empty =
  let klass = Security_class.bottom (Level.hierarchy [ "none" ]) (Category.universe []) in
  {
    seq = -1;
    subject = Subject.make (Principal.individual "none") klass;
    object_name = "";
    object_id = -1;
    object_class = klass;
    mode = Access_mode.Read;
    decision = Decision.Denied Decision.Not_an_object;
  }

(* The smallest power of two that holds [capacity]. *)
let rec slots_for capacity n = if n >= capacity then n else slots_for capacity (2 * n)

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Audit.create: capacity must be positive";
  let slots = slots_for capacity 1 in
  {
    ring = Array.init slots (fun _ -> Atomic.make empty);
    mask = slots - 1;
    capacity;
    next_seq = Atomic.make 0;
    denied = Atomic.make 0;
  }

let capacity log = log.capacity

(* Store [event] unless the slot already holds a newer one.  A plain
   store is not enough: a writer preempted between taking its number
   and storing can fall a whole lap (the slot count) behind, and its
   store would then replace event [seq + slots] with the older [seq].
   No later read expects [seq] in that slot any more, so the newer
   event would be lost for good.  The window is a few instructions
   wide, which is why a stress test can pass with a plain store.  Top
   level and self-recursive, so the retry allocates no closure. *)
let rec publish cell event =
  let current = Atomic.get cell in
  if current.seq < event.seq && not (Atomic.compare_and_set cell current event) then
    publish cell event

let[@inline] append log ~subject ~object_name ~object_id ~object_class ~mode decision =
  let seq = Atomic.fetch_and_add log.next_seq 1 in
  publish (Array.unsafe_get log.ring (seq land log.mask))
    { seq; subject; object_name; object_id; object_class; mode; decision };
  if not (Decision.is_granted decision) then Atomic.incr log.denied

(* One test of the metrics switch: off, the record is the append
   alone; on, the same append inside the count and the sampled timer
   (1 of 16 records, picked by the record counter). *)
let record log ~subject ~object_name ~object_id ~object_class ~mode decision =
  if Metrics.enabled () then begin
    let t0 = Metrics.start_counted m_records m_record_ns in
    append log ~subject ~object_name ~object_id ~object_class ~mode decision;
    Metrics.stop_timing m_record_ns t0
  end
  else append log ~subject ~object_name ~object_id ~object_class ~mode decision

(* The window is the newest [count] sequence numbers issued when the
   read starts.  Walking it newest first and consing yields oldest
   first; a slot whose event is not the expected number is skipped: it
   is still being written, or a newer lap has already replaced it. *)
let tail log ~count =
  let next = Atomic.get log.next_seq in
  let oldest = Stdlib.max 0 (next - Stdlib.min log.capacity (Stdlib.max 0 count)) in
  let rec gather seq acc =
    if seq < oldest then acc
    else begin
      let event = Atomic.get (Array.unsafe_get log.ring (seq land log.mask)) in
      gather (seq - 1) (if event.seq = seq then event :: acc else acc)
    end
  in
  gather (next - 1) []

let events log = tail log ~count:log.capacity
let total log = Atomic.get log.next_seq
let denied_total log = Atomic.get log.denied
let granted_total log = total log - denied_total log

let clear log =
  Array.iter (fun cell -> Atomic.set cell empty) log.ring;
  Atomic.set log.next_seq 0;
  Atomic.set log.denied 0

let pp_event ppf event =
  Format.fprintf ppf "#%d %a %a %s: %a" event.seq Subject.pp event.subject
    Access_mode.pp event.mode event.object_name Decision.pp event.decision
