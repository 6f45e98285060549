(** Compiled ACLs: the allocation-free decision hot path.

    {!Acl.check} interprets an ACL as a list walk with a transitive
    group-membership query per group entry.  This module compiles an
    ACL — against a frozen {!Principal.Db.Snapshot} — into flat arrays
    of packed allow/deny mode masks keyed by interned principal id,
    with group membership pre-flattened into the per-individual
    group-tier mask.  {!check} is then a snapshot id probe and a
    handful of bitwise tests: no allocation, no list traversal, no
    membership walk.

    Validity follows the repo-wide generation scheme: a compiled ACL
    is correct exactly while (a) the ACL value it was compiled from is
    still the object's ACL (guarded by the {!Meta} generation of the
    caching object) and (b) the database generation still equals
    {!db_generation} (group membership unchanged).  {!Meta.compiled_acl}
    enforces both and recompiles on any mismatch.

    A denial names the entry that decided, as {!Acl.check}'s
    [Denied_by] does, so the reference monitor's denial diagnostics
    come from the compiled form alone.  Grants carry no [who]: nothing
    downstream reads it, and leaving it out keeps the grant path free
    of allocation. *)

type t

val dense_limit : int
(** Registered-individual count above which {!compile} switches from
    the dense (mask-per-individual) form to the sparse (entry-table)
    form; exposed so tests and benchmarks can build worlds on either
    side of the cut. *)

type verdict =
  | Granted
  | Denied of Acl.who
      (** the first matching deny entry, in ACL order, of the tier
          that decided — the [who] of {!Acl.check}'s [Denied_by] *)
  | No_entry

val compile : db:Principal.Db.t -> Acl.t -> t
(** Compile [acl] against the database's current snapshot.  Below a
    few thousand registered individuals the form is {e dense} — one
    mask word per individual, group entries pre-flattened through the
    snapshot's closure rows, so compile costs O(entries + total
    closure size + population) and a check is two array loads.  Above
    that, the form is {e sparse} — the interned, sorted entries
    themselves — so compile costs O(entries log entries) and O(entries)
    memory regardless of population, and a check resolves group
    entries against the subject's sorted snapshot row.  Both forms
    decide identically; the cut keeps a compiled ACL cacheable on
    every object's metadata even at 10^6 principals.  Intended for the
    miss path, with the result cached on the object's metadata. *)

val check : t -> subject:Principal.individual -> mode:Access_mode.t -> verdict
(** Decide [subject] requesting [mode].  Agrees with {!Acl.check}
    whenever the compiled form is valid (see above): same verdict
    class, and on a denial the same [who]; a QCheck differential suite
    holds the two implementations to that contract in both the dense
    and the sparse shape.  A grant or a no-entry allocates nothing. *)

val check_id :
  t -> id:int -> subject:Principal.individual -> mode:Access_mode.t -> verdict
(** {!check} with the subject's snapshot id already looked up: [id]
    must be [Principal.Db.Snapshot.individual_id (snapshot t) subject].
    Saves the population-sized name probe on every check when the
    caller remembers the id per snapshot ({!Subject.individual_id}). *)

val permits : t -> subject:Principal.individual -> mode:Access_mode.t -> bool
(** [true] iff {!check} returns {!Granted}. *)

val db_generation : t -> int
(** The {!Principal.Db.generation} the compiled form is valid for. *)

val snapshot : t -> Principal.Db.Snapshot.t
(** The exact snapshot the form was compiled against (its interning
    keys the mask arrays). *)

val verdict_class : verdict -> int
(** 0 granted, 1 denied, 2 no-entry; for differential comparison with
    {!Acl.verdict}. *)
