(** The stack-inspection-style chain prover: a fixpoint over the call
    graph that decides, for every reachable call site, whether the
    reference monitor's checks there are {e provably redundant}
    (grant, along every reaching chain, for every achievable session),
    {e provably denied} (a dead edge — authority on paper nobody can
    ever exercise), or {e runtime dependent}.

    A {e context} is what the monitor would see arriving at a node:
    the principal on whose behalf control runs and the static ceiling
    its entry set, exactly the ceiling [Subject.with_ceiling] would have
    imposed on the live subject (after Banerjee & Naumann, contexts play
    the role of the static approximation of the dynamic stack).
    Propagation starts from the graph's entries and crosses a call site
    only when the per-edge verdict ({!Certify.prove_path} under the
    context's ceiling) is not [Always_deny]; there are finitely many
    entries, so the context space is finite and the worklist
    terminates.  The worklist queues each (node, context) pair once, on
    arrival, so every edge is walked once per context reaching its
    source.

    Classification aggregates every context reaching a site:
    all-[Always_allow] is {e redundant} (the linker may pre-mint a
    certificate/handle for it), all-[Always_deny] is {e denied}
    (an [Error] finding — the CI gate refuses such policies), anything
    else is {e dependent}.  Sites no context reaches are not
    reported.

    The over-privilege pass rides on the same graph: an object that
    participates in reachable chains only ever needs [List] (interior)
    and [Execute] (target); any further mode an ACL grants a
    registered, untrusted, non-owner principal exceeds every mode
    reachable through the call graph and is flagged. *)

open Exsec_core

type classification =
  | Redundant
  | Denied
  | Dependent

val classification_to_string : classification -> string
(** ["provably-redundant"], ["provably-denied"], ["runtime-dependent"]. *)

type context = {
  cx_principal : Principal.individual;
  cx_cap : Security_class.t option;  (** the entry's static ceiling *)
  cx_verdict : Verdict.t;  (** the site's verdict under this context *)
}

type site_report = {
  sr_target : string;  (** the call site's path, rendered *)
  sr_classification : classification;
  sr_contexts : context list;
      (** every distinct (principal, ceiling) that reaches the site,
          principal-sorted *)
}

type report = {
  sites : site_report list;  (** every reachable site, path-sorted *)
  findings : Finding.t list;  (** chain + over-privilege, normalized *)
}

val analyze :
  db:Principal.Db.t ->
  registry:Clearance.t ->
  policy:Policy.t ->
  ?objects:(string * Meta.t) list ->
  Callgraph.t ->
  report
(** Run the fixpoint.  [objects] (default [[]]) is the declared object
    set the over-privilege pass audits; chain classification itself
    needs only the graph.  Every proof of the run reads membership from
    [db]'s published snapshot, read once when the run starts. *)

val redundant_targets : report -> Path.t list
(** The provably-redundant call sites — what the linker pre-mints
    certificates and handles for. *)

val pp_site : Format.formatter -> site_report -> unit

val sites_to_json : report -> string
(** The chain-verdict records as a raw JSON array (schema in
    docs/ANALYZE.md): [[{"target":…,"classification":…,"contexts":
    [{"principal":…,"ceiling":…,"verdict":…}]}]]. *)

val lifecycle_to_json : profile:Certificate.profile -> report -> string
(** What a certificate issued under [profile] would cover: the profile
    itself plus, for every reachable site,
    [{"target":…,"certifiable":…,"reason":…}] — certifiable iff the
    site is provably redundant {e and} inside the profile's modes and
    prefixes.  Pure reporting; enforcement lives in
    {!Certificate.issue}.  Schema in docs/ANALYZE.md. *)
