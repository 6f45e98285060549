(** The three-point verdict lattice of the static analyzer.

    A verdict answers, for a (principal, object, mode) question,
    whether the reference monitor would grant the access over the
    whole {e session space} of that principal: every session class the
    clearance registry would let the principal log in at (any class
    dominated by the registered clearance), further capped by an
    optional static extension class, with the principal's registered
    trusted bit and integrity label.

    - [Always_allow]: every such session is granted;
    - [Always_deny]: every such session is denied;
    - [Depends]: the outcome varies with the session class (or the
      question leaves the proved domain — e.g. an unregistered
      principal).

    Soundness is differential: no [Always_allow] may ever be denied by
    {!Exsec_core.Reference_monitor.decide} for an in-domain subject,
    and no [Always_deny] ever granted (the QCheck suite probes this
    with randomized policies; DESIGN.md "Static policy analysis"
    states the claim precisely). *)

type t =
  | Always_allow
  | Always_deny
  | Depends

val equal : t -> t -> bool

val both : t -> t -> t
(** Conjunction of two access requirements that must {e both} be
    satisfied (e.g. [List] on an ancestor and [Execute] on the leaf):
    any [Always_deny] dominates, all-[Always_allow] stays
    [Always_allow], anything else is [Depends]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
