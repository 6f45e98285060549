(** The call graph the chain prover runs over: what a policy file
    declares ({!of_objects}), or the part of a live kernel an extension
    being linked can reach ([Exsec_extsys.Kernel.call_graph]).

    Nodes are plain string identifiers naming the two kinds of places
    control can sit: {e code} nodes (an extension's implementation, or
    a principal about to make a call) and {e site} nodes (a callable
    path in the universal name space — reaching one through an edge
    carrying a {!site} means passing the reference monitor's checked
    resolution of that path).  Edges are either {e call sites} (the
    monitor checks [List] along the recorded chain and [Execute] on
    the target) or silent {e control transfers} (entering the code a
    site dispatches to).  Neither changes the travelling context's
    static ceiling: a provided procedure runs under its caller's
    subject unchanged, so the ceiling is the one its entry set.

    The graph is deliberately built from core types only ([Path],
    [Meta], [Security_class]) so it can describe both. *)

open Exsec_core

type site = {
  target : Path.t;
  chain : Meta.t list;
      (** every node a checked resolution consults, root-most first,
          target last; [[]] when the path cannot be resolved (such a
          site never proves redundant) *)
}

type edge = {
  src : string;
  dst : string;
  site : site option;  (** [Some] = monitor-checked call; [None] = transfer *)
}

type entry = {
  entry_principal : Principal.individual;
  entry_node : string;
  entry_cap : Security_class.t option;
      (** the static ceiling every context from this entry carries *)
}

type t = {
  edges : edge list;
  entries : entry list;
}

val empty : t

val code_node : string -> string
(** Node id for a code unit (extension or service implementation). *)

val site_node : Path.t -> string
(** Node id for a callable path. *)

val principal_node : Principal.individual -> string
(** Node id for a principal's own thread of control. *)

val call_edge : src:string -> target:Path.t -> chain:Meta.t list -> edge
(** A monitor-checked call from [src] to [site_node target]. *)

val transfer_edge : src:string -> dst:string -> edge
(** Control entering [dst] from [src] without a check. *)

val with_entries : t -> entry list -> t

val strict_ancestor : string -> string -> bool
(** [strict_ancestor a b]: the path [a] names lies strictly above the
    path [b] names, both rendered as /-separated names. *)

val reaches_only : t -> from:string -> sites:Path.t list -> bool
(** Whether control entering at node [from] reaches no site but
    [sites]: every edge out of [from] is a call to one of [sites], and
    no edge leaves any site it calls.  Then a chain analysis entered
    only at [from] reaches no other site, so it proves none outside
    [sites].  [false] is conservative: a graph whose calls pass through
    other code back into [sites] answers [false] too. *)

val of_objects :
  registry:Clearance.t -> objects:(string * Meta.t) list -> t
(** The call graph a declared policy induces: every object holding an
    allow entry that grants [Execute] is a callable site, reached (a)
    directly by every registered principal, and (b) from its nearest
    callable strict ancestor — a service dispatching into its own
    sub-procedures.  A site's chain is the object's declared strict
    ancestors (undeclared interiors, including the root, are outside
    the declared policy and not modelled).  Entries are every
    registered principal, uncapped. *)
