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

    Validity follows what the form is made of.  It holds the ACL's
    entries keyed by interned ids, and no membership: {!check} reads
    membership from the snapshot it is given.  So a compiled ACL is
    correct exactly while (a) the ACL value it was compiled from is
    still the object's ACL (guarded by the {!Meta} generation of the
    caching object) and (b) the snapshot checked against has the
    {!interning} it was compiled against (compared by physical
    identity).  Membership churn keeps the interning, so it keeps the
    form too; only registering a principal makes a new interning.
    {!Meta.compiled_acl} enforces both and recompiles on any
    mismatch.

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

val compile_in : Principal.Db.Snapshot.t -> Acl.t -> t
(** Compile [acl] against the snapshot's {!Principal.Db.Snapshot.interning}.
    Costs O(entries log entries) time and O(entries) memory regardless
    of population: entries naming the same principal OR together, and
    groups the interning does not know compile away (they hold
    nobody).  Intended for the miss path, with the result cached on
    the object's metadata. *)

val compile : db:Principal.Db.t -> Acl.t -> t
(** {!compile_in} the database's current snapshot. *)

val check :
  t -> snapshot:Principal.Db.Snapshot.t -> subject:Principal.individual ->
  mode:Access_mode.t -> verdict
(** Decide [subject] requesting [mode], with group membership as of
    [snapshot].  Agrees with {!Acl.check} over the membership
    [snapshot] holds whenever the compiled form is valid (see above):
    same verdict class, and on a denial the same [who]; a QCheck
    differential suite holds the two implementations to that contract
    at small and large populations.  A grant or a no-entry allocates
    nothing.
    @raise Invalid_argument when [snapshot] has another interning than
    the form. *)

val check_id :
  t -> snapshot:Principal.Db.Snapshot.t -> id:int -> subject:Principal.individual ->
  mode:Access_mode.t -> verdict
(** {!check} with the subject's snapshot id already looked up: [id]
    must be [Principal.Db.Snapshot.individual_id snapshot subject], and
    [snapshot] must have the form's {!interning} (unchecked here).
    Saves the population-sized name probe on every check when the
    caller remembers the id per interning ({!Subject.individual_id}). *)

val permits :
  t -> snapshot:Principal.Db.Snapshot.t -> subject:Principal.individual ->
  mode:Access_mode.t -> bool
(** [true] iff {!check} returns {!Granted}. *)

val interning : t -> Principal.Db.Snapshot.interning
(** The interning the form was compiled against (it keys the mask
    tables). *)

val verdict_class : verdict -> int
(** 0 granted, 1 denied, 2 no-entry; for differential comparison with
    {!Acl.verdict}. *)
