(** Compiled ACLs: the allocation-free decision hot path.

    {!Acl.check} interprets an ACL as a list walk with a transitive
    group-membership query per group entry.  This module compiles an
    ACL — against a frozen {!Principal.Db.Snapshot} — into its
    interned, sorted entries: packed allow/deny mode masks in an
    (id, mask) table for the individuals it names and a (group-id,
    mask) table for its groups, plus one everyone mask.  {!check} is
    then a binary search of each table, one probe of the subject's
    sorted snapshot row per group entry, and a handful of bitwise
    tests: no allocation, no list traversal, no membership walk.  The
    form holds O(entries) words whatever the population.

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
(** A population cut that nothing in the library uses: every ACL
    compiles to the one entry-table form above, whatever the
    population.  The value exists only because the benchmark harness
    in [perfbench/] prints it; it goes when the harness stops
    reading it. *)

type verdict =
  | Granted
  | Denied of Acl.who
      (** the first matching deny entry, in ACL order, of the tier
          that decided — the [who] of {!Acl.check}'s [Denied_by] *)
  | No_entry

val compile : db:Principal.Db.t -> Acl.t -> t
(** Compile [acl] against the database's current snapshot.  Costs
    O(entries log entries) time and O(entries) memory regardless of
    population: entries naming the same principal OR together, and
    groups the snapshot does not know compile away (they hold
    nobody).  Intended for the miss path, with the result cached on
    the object's metadata. *)

val check : t -> subject:Principal.individual -> mode:Access_mode.t -> verdict
(** Decide [subject] requesting [mode].  Agrees with {!Acl.check}
    whenever the compiled form is valid (see above): same verdict
    class, and on a denial the same [who]; a QCheck differential suite
    holds the two implementations to that contract at small and large
    populations.  A grant or a no-entry allocates nothing. *)

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
    keys the mask tables). *)

val verdict_class : verdict -> int
(** 0 granted, 1 denied, 2 no-entry; for differential comparison with
    {!Acl.verdict}. *)
