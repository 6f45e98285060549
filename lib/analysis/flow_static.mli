(** Static information-flow analysis over a set of labelled objects.

    The mandatory lattice stops a {e single session} from moving data
    downward, but a principal holds many sessions: read a source at a
    high session, log back in low, write a sink.  This pass builds the
    static flow graph those multi-session relays induce — an edge
    [a -> b] whenever some registered, untrusted principal may read
    [a] in one session and write [b] in another ({!Certify.prove} not
    [Always_deny] for [Read], and for [Write] or [Write_append]) — and
    takes its transitive closure.

    Findings:

    - {e flow channel} (warning): the closure admits [a -> b] while
      [b]'s confidentiality class does not dominate [a]'s — contents
      labelled as [a] can end up stored below (or beside) that label;
    - {e unreachable object} (warning): some declared strict ancestor
      of the object's path refuses [List] to every registered
      principal in every session, so nobody can even resolve a name
      under it (trusted principals included — the resolver's traversal
      check has no trusted exemption for read-like modes).

    Trusted principals are excluded from the flow graph: they are the
    TCB, exempt from the [*]-property by design, and would connect
    every pair.  Only objects passed in are considered — the analysis
    is of the declared policy, not of a running tree. *)

open Exsec_core

val analyze :
  db:Principal.Db.t ->
  registry:Clearance.t ->
  policy:Policy.t ->
  objects:(string * Meta.t) list ->
  Finding.t list
(** Flow-channel and unreachable-object findings over the given
    [path, metadata] set.  Every proof reads membership from [db]'s
    published snapshot, read once per call. *)
