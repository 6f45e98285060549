exception Closed

type conn = {
  send : string -> unit;
  recv : unit -> string option;
  close : unit -> unit;
  peer : string;
}

type t = {
  accept : unit -> conn option;
  shutdown : unit -> unit;
  kind : string;
}

let shutdown t = t.shutdown ()

module Chan = struct
  type 'a chan = {
    queue : 'a Queue.t;
    lock : Mutex.t;
    nonempty : Condition.t;
    mutable closed : bool;
  }

  let create () =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }

  (* State changes land under the lock; the wake-up goes out after it
     is released, so a waiter on the same core does not wake only to
     block on the mutex (see the interface). *)
  let push chan x =
    let pushed =
      Mutex.protect chan.lock (fun () ->
          if chan.closed then false
          else begin
            Queue.push x chan.queue;
            true
          end)
    in
    if pushed then Condition.signal chan.nonempty;
    pushed

  let pop chan =
    Mutex.protect chan.lock (fun () ->
        let rec wait () =
          if not (Queue.is_empty chan.queue) then Some (Queue.pop chan.queue)
          else if chan.closed then None
          else begin
            Condition.wait chan.nonempty chan.lock;
            wait ()
          end
        in
        wait ())

  let close chan =
    Mutex.protect chan.lock (fun () -> chan.closed <- true);
    Condition.broadcast chan.nonempty
end

module Loopback = struct
  (* A connection is two closeable queues; each side sends into one
     and receives from the other.  Closing either side closes both
     queues, so the peer's blocked [recv] wakes with [None] and its
     next [send] raises [Closed]. *)
  type endpoint = {
    pending : conn Chan.chan;
    mutable next_id : int;
    id_lock : Mutex.t;
  }

  let create () = { pending = Chan.create (); next_id = 0; id_lock = Mutex.create () }

  let half ~peer mine theirs =
    {
      send = (fun frame -> if not (Chan.push theirs frame) then raise Closed);
      recv = (fun () -> Chan.pop mine);
      close =
        (fun () ->
          Chan.close mine;
          Chan.close theirs);
      peer;
    }

  let connect endpoint =
    let id =
      Mutex.protect endpoint.id_lock (fun () ->
          let id = endpoint.next_id in
          endpoint.next_id <- id + 1;
          id)
    in
    let client_to_server = Chan.create () in
    let server_to_client = Chan.create () in
    let label side = Printf.sprintf "loopback:%d:%s" id side in
    let server_side = half ~peer:(label "client") client_to_server server_to_client in
    let client_side = half ~peer:(label "server") server_to_client client_to_server in
    if not (Chan.push endpoint.pending server_side) then begin
      client_side.close ();
      raise Closed
    end;
    client_side

  let transport endpoint =
    {
      accept = (fun () -> Chan.pop endpoint.pending);
      shutdown = (fun () -> Chan.close endpoint.pending);
      kind = "loopback";
    }
end

module Unix_socket = struct
  (* Framing: 4-byte big-endian payload length, then the payload.
     Reads distinguish a clean close (EOF at a frame boundary) from a
     torn frame; both surface as [None] — the server treats any
     mid-frame failure as the end of the conversation. *)

  let really_write fd s =
    let n = String.length s in
    let rec go off =
      if off < n then
        match Unix.write_substring fd s off (n - off) with
        | wrote -> go (off + wrote)
        | exception Unix.Unix_error (EINTR, _, _) ->
          (* A stray signal must not tear down a healthy connection:
             retry at the same offset, mirroring [read_exact]. *)
          go off
    in
    go 0

  let read_exact fd n =
    let buf = Bytes.create n in
    let rec go off =
      if off >= n then Some (Bytes.unsafe_to_string buf)
      else
        match Unix.read fd buf off (n - off) with
        | 0 -> None
        | read -> go (off + read)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
        | exception Unix.Unix_error _ -> None
    in
    go 0

  let frame_of payload =
    let n = String.length payload in
    let header = Bytes.create 4 in
    Bytes.set_int32_be header 0 (Int32.of_int n);
    Bytes.unsafe_to_string header ^ payload

  let conn_of_fd ~peer fd =
    let closed = Atomic.make false in
    let close () =
      if not (Atomic.exchange closed true) then begin
        (* shutdown() before close(): [Server.stop] closes connections
           out from under workers blocked in read(2), which wakes on a
           shutdown (EOF) but not reliably on a bare close. *)
        (try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
    in
    let send payload =
      if String.length payload > Wire.max_frame then raise Closed;
      try really_write fd (frame_of payload) with
      | Unix.Unix_error _ ->
        close ();
        raise Closed
    in
    let recv () =
      match read_exact fd 4 with
      | None -> None
      | Some header ->
        let n = Int32.to_int (String.get_int32_be header 0) in
        if n < 0 || n > Wire.max_frame then None else read_exact fd n
    in
    { send; recv; close; peer }

  let listen ?(backlog = 64) path =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd backlog;
    let down = Atomic.make false in
    let accept () =
      if Atomic.get down then None
      else
        match Unix.accept fd with
        | client, _ -> Some (conn_of_fd ~peer:path client)
        | exception Unix.Unix_error _ -> None
    in
    let shutdown () =
      if not (Atomic.exchange down true) then begin
        (* shutdown() before close(): a domain blocked in accept(2)
           does not reliably wake on a bare close of the listening fd. *)
        (try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()
      end
    in
    { accept; shutdown; kind = "unix:" ^ path }

  let connect path =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    (try Unix.connect fd (ADDR_UNIX path) with
    | e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
    conn_of_fd ~peer:("unix:" ^ path) fd
end
