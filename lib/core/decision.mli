(** Access decisions and the reasons behind them.

    Every check performed by the reference monitor yields a decision
    that records {e why} access was granted or refused, so audit logs
    and error messages can explain themselves. *)

type denial =
  | Dac_no_entry  (** closed-world default: no ACL entry matched *)
  | Dac_explicit_deny of Acl.who  (** a negative ACL entry matched *)
  | Mac_denied of Mac.denial
  | Integrity_denied of Integrity.denial
  | Not_an_object  (** the name did not resolve to an object *)
  | Path_denied of string
      (** traversal was refused at the named intermediate node *)

type t =
  | Granted
  | Denied of denial

val is_granted : t -> bool
val equal : t -> t -> bool
val denial_to_string : denial -> string
(** The one rendering of a denial: what {!pp_denial} prints and what a
    served [Denied] answer carries. *)

val pp_denial : Format.formatter -> denial -> unit
val pp : Format.formatter -> t -> unit

val to_result : t -> (unit, denial) result
val of_result : (unit, denial) result -> t
