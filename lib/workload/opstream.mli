(** Seeded streams of reference-monitor operations — repeated access
    checks interleaved with the mutations that must revoke memoized
    state such as compiled ACLs (ACL replacement, relabeling, policy
    swaps, group membership churn).

    The differential oracle suite ([test/test_cache.ml]) replays one
    stream through the monitor and through an interpreted reference
    decision function and requires identical decisions; the scaling
    bench (S1) uses the same shapes.  Subjects and objects are indices
    into the environment's arrays so a stream can be interpreted
    against any monitor over the same environment. *)

open Exsec_core

type op =
  | Check of { subject : int; object_ : int; mode : Access_mode.t }
  | Set_acl of { object_ : int; acl : Acl.t }
  | Set_class of { object_ : int; klass : Security_class.t }
  | Set_integrity of { object_ : int; integrity : Security_class.t option }
  | Set_policy of Policy.t
  | Join_group of { group : Principal.group; ind : Principal.individual }
  | Leave_group of { group : Principal.group; ind : Principal.individual }

type env = {
  db : Principal.Db.t;
  individuals : Principal.individual list;
  groups : Principal.group list;
  hierarchy : Level.hierarchy;
  universe : Category.universe;
  subjects : Subject.t array;  (** mixed: some trusted, ceilinged, integrity-labelled *)
  metas : Meta.t array;  (** random ACLs (with denies), classes, integrity labels *)
}

val environment :
  ?max_acl_length:int ->
  Prng.t -> individuals:int -> groups:int -> subjects:int -> objects:int ->
  levels:int -> categories:int -> env
(** [max_acl_length] (default 8) bounds each object's generated ACL;
    raise it to model deployments with long, group-heavy lists. *)

val policies : Policy.t list
(** The policy variants [Set_policy] draws from (every layer
    combination plus the liberal overwrite rule). *)

val generate : Prng.t -> env -> steps:int -> mutation_fraction:float -> op list
(** [steps] operations; each is a mutation with probability
    [mutation_fraction], else a random [Check].  Deterministic in the
    PRNG state. *)
