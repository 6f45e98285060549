(* The handler set an event node owns, for tests that register or
   count handlers directly. *)

open Exsec_core
open Exsec_extsys

let handlers kernel event =
  match Namespace.find (Kernel.namespace kernel) event with
  | Ok node -> (
    match Namespace.payload node with
    | Some (Kernel.Event handlers) -> handlers
    | Some _ | None -> Alcotest.failf "%s: not an event" (Path.to_string event))
  | Error _ -> Alcotest.failf "%s: not found" (Path.to_string event)

let register kernel event handler = Dispatcher.register (handlers kernel event) handler
let count kernel event = List.length (Dispatcher.handlers (handlers kernel event))
