(** Counters of a decision cache, which the reference monitor does not
    have: the compiled ACL answers every check (see
    {!Reference_monitor.decide}).  The record exists only because the
    benchmark harness in [perfbench/] reads these fields from
    {!Exsec_extsys.Kernel.cache_stats}, which always returns [None];
    both go when the harness stops reading them. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
}
