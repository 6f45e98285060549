(* The probe both certificate oracles share (test_chain.ml,
   test_cert_lifecycle.ml).  Twin kernels are built identically and
   link the same extensions; the certified twin is called through the
   linker's entry points, the full twin through the checked
   [Kernel.call] under the same subject. *)

open Exsec_core
open Exsec_extsys

type twin = {
  kernel : Kernel.t;
  links : Linker.Linked.t list;  (* the same extensions, in the same order, on both twins *)
}

type tally = {
  mutable probes : int;
  mutable fast : int;  (* probes the proved path served *)
}

let tally () = { probes = 0; fast = 0 }
let audit twin = Reference_monitor.audit (Kernel.monitor twin.kernel)

(* [cert] on the certified twin and [full] on the full twin must agree,
   and a refusal on the certified twin must come out of the checked,
   audited path: a certificate never refuses (or grants) silently.  A
   [proved] probe counts as fast when the certified twin wrote fewer
   audit records than the full twin: the proved path writes none for
   the outer hop, the checked path exactly as many. *)
let probe tally ~cert_twin ~full_twin ~proved ~cert ~full =
  tally.probes <- tally.probes + 1;
  let audit_c = audit cert_twin and audit_f = audit full_twin in
  let c0 = Audit.total audit_c and f0 = Audit.total audit_f in
  let denied0 = Audit.denied_total audit_c in
  let rf = full () in
  let rc = cert () in
  if proved && Audit.total audit_c - c0 < Audit.total audit_f - f0 then
    tally.fast <- tally.fast + 1;
  let audited =
    match rc with
    | Error (Service.Denied _) -> Audit.denied_total audit_c > denied0
    | Ok _ | Error _ -> true
  in
  rf = rc && audited

(* Every import of every extension under every subject through
   [Linked.call], and every chain target under the link-time subject
   through [Linked.call_chain]. *)
let sweep tally ~cert_twin ~full_twin ~subjects ~link_subject =
  let probe = probe tally ~cert_twin ~full_twin in
  List.for_all2
    (fun linked peer ->
      let caller = Linker.Linked.name peer in
      let checked subject path () =
        Kernel.call full_twin.kernel ~subject:(Linker.Linked.subject_for peer subject) ~caller
          path []
      in
      Array.for_all
        (fun subject ->
          List.for_all
            (fun path ->
              probe ~proved:true ~full:(checked subject path) ~cert:(fun () ->
                  Linker.Linked.call linked ~subject path []))
            (Linker.Linked.imports linked))
        subjects
      && List.for_all
           (fun path ->
             probe ~proved:false ~full:(checked link_subject path) ~cert:(fun () ->
                 Linker.Linked.call_chain linked path []))
           (Linker.Linked.chain_imports linked))
    cert_twin.links full_twin.links
