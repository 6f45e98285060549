(** The ACL lint pass: per-object defects in discretionary policy.

    Four lints, in decreasing severity:

    - {e unknown principal} (error): an entry names an individual or
      group the principal database does not know — it can never match,
      and usually marks a typo or a stale ACL;
    - {e contradictory entries} (error): one principal holds both an
      allow and a deny for overlapping modes on the same object; the
      deny wins (same-tier deny precedence), but the grant is a trap
      for whoever reads the policy;
    - {e shadowed entry} (warning): removing the entry changes no
      access outcome — for any subject (every database individual plus
      a synthetic outsider) and any of the entry's modes, the ACL
      grants iff it granted before.  Typical case: a group entry whose
      every relevant member is already decided at the individual tier.
      Closed-world denial makes bare deny entries inert too, and they
      are reported;
    - {e redundant entry} (info): a later entry with the same
      principal and sign whose modes are covered by earlier ones —
      exactly what {!Exsec_core.Acl.normalize} merges away.

    With a clearance registry available, a fifth lint crosses layers:

    - {e dead grant} (warning): an allow entry that produces at least
      one discretionary grant, every one of which the mandatory/
      integrity layers refuse for {e every} session of {e every}
      matching registered principal ({!Certify.prove} returns
      [Always_deny]) — authority on paper that no one can use. *)

open Exsec_core

val lint_object :
  db:Principal.Db.t ->
  ?registry:Clearance.t ->
  policy:Policy.t ->
  path:string ->
  Meta.t ->
  Finding.t list
(** All ACL findings for one object.  [registry] enables the
    dead-grant lint, whose proofs read membership from [db]'s
    published snapshot, read once per call; without it only the
    discretionary lints run.
    Entries already reported as contradictory or redundant are not
    additionally reported as shadowed. *)
