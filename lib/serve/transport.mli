(** Connection transports for the serve front end.

    A transport yields framed, bidirectional byte-message connections;
    the server is written against this record so the same
    accept/worker loop runs over both implementations:

    - {!Unix_socket}: a Unix-domain stream socket with a 4-byte
      big-endian length prefix per frame — [exsecd serve <socket>];
    - {!Loopback}: an in-process pair of mutex/condition queues, so CI,
      tests and the S2 bench drive the full wire path (encode, frame,
      authenticate, dispatch, respond) without touching the network
      stack or the filesystem.  Each queue changes its state under its
      mutex and wakes a waiter only after releasing it (see {!Chan}):
      a served request is two handoffs, and each should cost one
      wake-up.

    Connections are single-owner on each side: one domain reads and
    writes a given [conn] (the server dedicates a worker to a
    connection; the load generator a client domain).  [send]/[recv]
    themselves do not lock beyond what the implementation needs. *)

exception Closed
(** Raised by [send] on a connection whose peer is gone. *)

type conn = {
  send : string -> unit;  (** one frame payload. @raise Closed *)
  recv : unit -> string option;  (** blocks; [None] on peer close *)
  close : unit -> unit;  (** idempotent *)
  peer : string;  (** diagnostic label *)
}

type t = {
  accept : unit -> conn option;  (** blocks; [None] after {!shutdown} *)
  shutdown : unit -> unit;  (** unblocks pending and future [accept]s *)
  kind : string;  (** ["loopback"] or ["unix:<path>"] *)
}

val shutdown : t -> unit

(** Unbounded, closeable MPMC queue — the loopback plumbing, also used
    by the server to feed accepted connections to its workers.

    The wake rule: [push] and [close] change the queue under its mutex,
    release the mutex, and only then signal (broadcast, for [close])
    its condition; [pop] checks and waits under the mutex.  A waiter
    is either already waiting when the state changes or sees the change
    when it next checks, so no wake-up is lost.  Waking after the
    unlock matters when both ends share a core: a waiter signalled
    under the lock preempts the signaller, finds the mutex still held,
    blocks on it, and must be woken a second time once the signaller
    runs again — two switches per handoff instead of one.  Anything
    that replaces this queue (a ready queue of requests, say) keeps the
    rule. *)
module Chan : sig
  type 'a chan

  val create : unit -> 'a chan
  val push : 'a chan -> 'a -> bool
  (** [false] (and the element dropped) once closed. *)

  val pop : 'a chan -> 'a option
  (** Blocks while empty and open; [None] once closed {e and}
      drained. *)

  val close : 'a chan -> unit
end

module Loopback : sig
  type endpoint

  val create : unit -> endpoint
  val transport : endpoint -> t

  val connect : endpoint -> conn
  (** The client half; the server half arrives at [accept].
      @raise Closed once the endpoint is shut down. *)
end

module Unix_socket : sig
  val listen : ?backlog:int -> string -> t
  (** Bind and listen on the named socket path (an existing socket
      file is unlinked first).  [shutdown] closes the listening
      socket and removes the path. *)

  val connect : string -> conn
end
