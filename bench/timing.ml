(* Lightweight timing for the figure sweeps: median ns/op over several
   batches on the monotonic clock.  The bechamel suite (bech.ml) gives
   statistically careful numbers for the headline microbenchmarks; the
   sweeps here favour being cheap enough to run at many parameter
   points. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let ns_per_op ?(warmup = 100) ?(batch = 1_000) ?(batches = 9) f =
  for _ = 1 to warmup do
    f ()
  done;
  let sample () =
    let start = now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    (now_ns () -. start) /. float_of_int batch
  in
  let samples = List.init batches (fun _ -> sample ()) in
  let sorted = List.sort compare samples in
  List.nth sorted (batches / 2)

let pp_ns ppf ns =
  if ns < 1_000.0 then Format.fprintf ppf "%7.1f ns" ns
  else if ns < 1_000_000.0 then Format.fprintf ppf "%7.2f us" (ns /. 1_000.0)
  else Format.fprintf ppf "%7.2f ms" (ns /. 1_000_000.0)

(* Every experiment's header names the dune profile the bench was built
   in: the dev profile compiles the libraries with -opaque, so its
   figures describe code the release build does not run. *)
let header title = Format.printf "@.=== %s [%s build] ===@." title Build_profile.name
