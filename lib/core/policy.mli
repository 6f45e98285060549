(** Reference-monitor policy configuration.

    The paper's model layers discretionary control (section 2.1) and
    mandatory control (section 2.2); a request must pass {e both}
    enabled layers.  The knobs here exist so the experiments can
    ablate each layer and so the strict-overwrite remark of section
    2.2 can be exercised. *)

type t = {
  dac : bool;  (** evaluate access control lists *)
  mac : bool;  (** evaluate the security-class lattice rules *)
  integrity : bool;
      (** evaluate Biba integrity rules on objects and subjects that
          carry integrity labels (unlabelled ones are always exempt) *)
  overwrite : Mac.overwrite_rule;
      (** how plain [Write]/[Delete] interact with unequal classes *)
}

val default : t
(** DAC, MAC and integrity on, strict overwrite. *)

val no_integrity : t
(** {!default} with the Biba layer off. *)

val dac_only : t
val mac_only : t
val unchecked : t
(** Both layers off — the "no protection" baseline for benchmarks. *)

val with_recheck : t -> t
(** The identity: there is no link-time-only call mode left to switch
    off.  Kept only for [perfbench/] and the test oracles. *)

val pp : Format.formatter -> t -> unit
