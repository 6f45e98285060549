type h = {
  slot : int;
  stamp : int;
}

let pp ppf h = Format.fprintf ppf "handle#%d@@%d" h.slot h.stamp
let index h = h.slot

(* A slot's stamp and payload live in one immutable cell behind one
   atomic, so a reader can never observe the stamp of one mint paired
   with the payload of another: close-then-reuse races resolve to a
   clean [None], never to a foreign grant.  [cell_value] is [Some]
   exactly when the slot is live; [deref] returns that stored option
   untouched, which is what keeps the probe allocation-free. *)
type 'a cell = {
  cell_stamp : int;
  cell_value : 'a option;
}

type 'a t = {
  mutable slots : 'a cell Atomic.t array;
      (* grown by copying the Atomic.t refs themselves, so a reader
         holding the previous array still observes live updates for
         every slot that existed when it loaded [slots] *)
  lock : Mutex.t;
  mutable next_stamp : int;
  mutable free : int list;  (* closed slots, reused LIFO *)
  mutable used : int;  (* high-water mark of ever-minted slots *)
  mutable live : int;
  mutable mints : int;
  mutable closes : int;
}

type stats = {
  hs_capacity : int;
  hs_live : int;
  hs_mints : int;
  hs_closes : int;
}

let empty_cell = { cell_stamp = -1; cell_value = None }

let create ?(initial_capacity = 64) () =
  {
    slots = Array.init (max 1 initial_capacity) (fun _ -> Atomic.make empty_cell);
    lock = Mutex.create ();
    next_stamp = 0;
    free = [];
    used = 0;
    live = 0;
    mints = 0;
    closes = 0;
  }

let deref table h =
  let slots = table.slots in
  if h.slot < 0 || h.slot >= Array.length slots then None
  else begin
    let cell = Atomic.get (Array.unsafe_get slots h.slot) in
    if cell.cell_stamp = h.stamp then cell.cell_value else None
  end

let grow table =
  let old = table.slots in
  let next = Array.init (2 * Array.length old) (fun _ -> Atomic.make empty_cell) in
  Array.blit old 0 next 0 (Array.length old);
  table.slots <- next

let mint table value =
  Mutex.protect table.lock (fun () ->
      let slot =
        match table.free with
        | slot :: rest ->
          table.free <- rest;
          slot
        | [] ->
          if table.used >= Array.length table.slots then grow table;
          let slot = table.used in
          table.used <- slot + 1;
          slot
      in
      let stamp = table.next_stamp in
      table.next_stamp <- stamp + 1;
      Atomic.set table.slots.(slot) { cell_stamp = stamp; cell_value = Some value };
      table.live <- table.live + 1;
      table.mints <- table.mints + 1;
      { slot; stamp })

let update table h value =
  let slots = table.slots in
  if h.slot < 0 || h.slot >= Array.length slots then false
  else begin
    (* CAS against the exact observed cell: if a close (or another
       update) lands in between, retry from the stamp check — a closed
       handle stays closed. *)
    let rec swap () =
      let cell_ref = slots.(h.slot) in
      let seen = Atomic.get cell_ref in
      if seen.cell_stamp <> h.stamp then false
      else if
        Atomic.compare_and_set cell_ref seen
          { cell_stamp = h.stamp; cell_value = Some value }
      then true
      else swap ()
    in
    swap ()
  end

let close table h =
  Mutex.protect table.lock (fun () ->
      if h.slot < 0 || h.slot >= Array.length table.slots then None
      else begin
        let cell = Atomic.get table.slots.(h.slot) in
        if cell.cell_stamp <> h.stamp then None
        else begin
          Atomic.set table.slots.(h.slot) empty_cell;
          table.free <- h.slot :: table.free;
          table.live <- table.live - 1;
          table.closes <- table.closes + 1;
          cell.cell_value
        end
      end)

let iter table f =
  let slots = table.slots in
  let used = min table.used (Array.length slots) in
  for slot = 0 to used - 1 do
    let cell = Atomic.get slots.(slot) in
    match cell.cell_value with
    | Some value -> f { slot; stamp = cell.cell_stamp } value
    | None -> ()
  done

let stats table =
  Mutex.protect table.lock (fun () ->
      {
        hs_capacity = Array.length table.slots;
        hs_live = table.live;
        hs_mints = table.mints;
        hs_closes = table.closes;
      })
