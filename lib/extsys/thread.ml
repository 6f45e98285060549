open Exsec_core

type status =
  | Runnable
  | Finished

type state =
  | Ready
  | Done
  | Killed
  | Faulted of string

type t = {
  id : int;
  thread_name : string;
  subject : Subject.t;
  body : unit -> status;
  mutable state : state;
  mutable quanta : int;
}

let make ~id ~name ~subject ~body =
  { id; thread_name = name; subject; body; state = Ready; quanta = 0 }

let id thread = thread.id
let name thread = thread.thread_name
let subject thread = thread.subject
let state thread = thread.state

let is_alive thread =
  match thread.state with
  | Ready -> true
  | Done | Killed | Faulted _ -> false

let quanta thread = thread.quanta

(* A body that raises ends its own thread and nothing else: the
   exception stops here, as [Kernel.guarded] stops one raised on a
   call, so the scheduler goes on with the other threads.  The thread
   keeps the exception's text for the listings. *)
let step thread =
  match thread.state with
  | Done | Killed | Faulted _ -> ()
  | Ready -> (
    thread.quanta <- thread.quanta + 1;
    match thread.body () with
    | Runnable -> ()
    | Finished -> thread.state <- Done
    | exception (Out_of_memory as e) -> raise e
    | exception e -> thread.state <- Faulted (Printexc.to_string e))

let kill thread =
  match thread.state with
  | Done | Killed | Faulted _ -> ()
  | Ready -> thread.state <- Killed

let pp ppf thread =
  Format.fprintf ppf "thread %d (%s, %a, %s)" thread.id thread.thread_name Subject.pp
    thread.subject
    (match thread.state with
    | Ready -> "ready"
    | Done -> "done"
    | Killed -> "killed"
    | Faulted fault -> "faulted: " ^ fault)
