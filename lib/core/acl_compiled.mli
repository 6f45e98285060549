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
    entries keyed by the database's ids, which never change, and no
    membership: {!check} reads membership from the snapshot it is
    given.  An individual the ACL names but that was not registered
    when the form was compiled is kept by name, and matched by name
    for any subject registered since, so it still bites once
    registered.  A group the ACL names but that was not registered
    compiles away (it holds nobody); the form then records how many
    groups it saw and is {!valid_for} no snapshot counting more.  So
    a compiled ACL is correct exactly while (a) the ACL value it was
    compiled from is still the object's ACL (it is memoized on the
    immutable {!Meta} value that holds that ACL) and (b) it is
    {!valid_for} the snapshot checked against.  Membership churn and registrations
    keep the form, except a group registration under a form that
    compiled a group away.  {!Meta.compiled_acl} enforces both and
    recompiles on any mismatch.  A form belongs to the database it
    was compiled against.

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
(** Compile [acl] against the individuals the database has registered
    ({!Principal.Db.Snapshot.registered_individuals}, which every
    snapshot of it shares) and the groups the snapshot counts.  Costs O(entries log entries) time and O(entries)
    memory regardless of population: entries naming the same principal
    OR together, and groups the snapshot does not count compile away
    (they hold nobody).  Intended for the miss path, with the result
    cached on the object's metadata. *)

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
    nothing. *)

val check_id :
  t -> snapshot:Principal.Db.Snapshot.t -> id:int -> subject:Principal.individual ->
  mode:Access_mode.t -> verdict
(** {!check} with the subject's id already looked up: [id] must be
    [Principal.Db.Snapshot.individual_id snapshot subject] (the same in
    every snapshot of the database, or [-1]).  Saves the
    population-sized name probe on every check when the caller
    remembers the id ({!Subject.individual_id}). *)

val permits :
  t -> snapshot:Principal.Db.Snapshot.t -> subject:Principal.individual ->
  mode:Access_mode.t -> bool
(** [true] iff {!check} returns {!Granted}. *)

val valid_for : t -> Principal.Db.Snapshot.t -> bool
(** Whether the form decides as a fresh compile against [snapshot]
    would: [false] only when the form compiled a group away and the
    snapshot counts more groups than the form saw, so that group may
    have been registered since.  One compare, no allocation. *)

val verdict_class : verdict -> int
(** 0 granted, 1 denied, 2 no-entry; for differential comparison with
    {!Acl.verdict}. *)
