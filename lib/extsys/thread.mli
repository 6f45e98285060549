(** Simulated threads of control.

    Threads serve as the {e subjects} of the access-control model
    (paper, section 2.2): each carries a {!Exsec_core.Subject.t} and
    functions at the security class of its principal.  Threads are
    also {e objects}: each is published in the universal name space
    (under [/threads]) with its own metadata, so operations {e on} a
    thread — killing it, inspecting it — are themselves access
    controlled.  That is exactly the control the Java sandbox lacked
    in the ThreadMurder incident (paper, section 1.2).

    Scheduling is cooperative: the scheduler calls the thread's body
    once per quantum until it reports [Finished].  A body that raises
    ends its own thread ([Faulted], keeping the exception's text) and
    nothing else: the scheduler goes on with the other threads (the
    ThreadMurder lesson of section 1.2, applied to faults), and the
    operator listings keep showing the faulted thread with its fault
    ({!Sched.listed}). *)

open Exsec_core

type status =
  | Runnable  (** wants more quanta *)
  | Finished  (** ran to completion *)

type state =
  | Ready
  | Done  (** body reported [Finished] *)
  | Killed  (** forcibly terminated *)
  | Faulted of string
      (** body raised: every exception but [Out_of_memory] is
          contained, as on the call paths ({!Service.Ext_failure});
          the thread keeps the exception's text
          ([Printexc.to_string]) *)

type t

val make : id:int -> name:string -> subject:Subject.t -> body:(unit -> status) -> t

val id : t -> int
val name : t -> string
val subject : t -> Subject.t
val state : t -> state
val is_alive : t -> bool

val quanta : t -> int
(** Number of quanta the thread has executed. *)

val step : t -> unit
(** Run one quantum if the thread is [Ready]; otherwise no effect.  A
    body that raises leaves the thread [Faulted] and returns normally.
    @raise Out_of_memory when the body does: the process is out of
    memory, not the thread. *)

val kill : t -> unit
(** Unchecked forcible termination — callers must clear the kill with
    the reference monitor first (the kernel's [kill] does). *)

val pp : Format.formatter -> t -> unit
(** [thread ID (NAME, SUBJECT, STATE)], a faulted thread's state
    reading [faulted: FAULT]. *)
