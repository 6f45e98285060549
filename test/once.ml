(* A property run shared by the cases that read it.  The first case to
   force the run performs it; every later case reads its outcome, a
   failure included.  So a case passes or fails the same run alone as
   in the whole suite, and the suite pays for one run. *)

type 'a t = ('a, exn * Printexc.raw_backtrace) result Lazy.t

let make f : 'a t =
  lazy (match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()))

let force (t : 'a t) =
  match Lazy.force t with
  | Ok v -> v
  | Error (e, backtrace) -> Printexc.raise_with_backtrace e backtrace

(* The QCheck property [prop] as a shared run, and its own case, which
   passes when the property holds.  [reset] clears what the property
   counts before it runs; [counts] reads it after. *)
let property ?(reset = ignore) prop ~counts =
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  let outcome =
    make (fun () ->
        reset ();
        run ();
        counts ())
  in
  Alcotest.test_case name speed (fun () -> ignore (force outcome)), outcome
