(** Principals: the individuals and groups that access control lists
    name.

    A {e database} records which individuals and groups exist and
    which members each group has.  Groups may contain groups;
    membership is transitive.  Cycles among groups are rejected at
    insertion time so that membership queries always terminate. *)

type individual = private string
(** The name of an individual principal (a user or a daemon). *)

type group = private string
(** The name of a group of principals. *)

val individual : string -> individual
(** [individual name] makes an individual principal.
    @raise Invalid_argument if [name] is empty. *)

val group : string -> group
(** [group name] makes a group principal.
    @raise Invalid_argument if [name] is empty. *)

val individual_name : individual -> string
val group_name : group -> string
val equal_individual : individual -> individual -> bool
val equal_group : group -> group -> bool
val compare_individual : individual -> individual -> int
val compare_group : group -> group -> int
val pp_individual : Format.formatter -> individual -> unit
val pp_group : Format.formatter -> group -> unit

type member =
  | Ind of individual
  | Grp of group  (** nested group *)

(** The principal database.

    Registration is append-only: an individual or group gets the next
    dense id of its kind when it is first registered, and keeps it for
    the life of the database.  Ids belong to one database.

    Concurrency: membership churn on {e already-registered} groups and
    individuals ([add_member]/[remove_member]) is safe concurrent with
    readers.  The writer publishes membership: each effective edit
    builds the next {!Snapshot} and stores it in one atomic slot, and
    readers load that slot.  Registering {e new} groups or individuals
    grows the name -> id tables and the id indexes in place and must
    happen before readers run in other domains (setup-time, or
    externally synchronized).  Outside that contract the damage is
    bounded: a name lookup loads each array of its table once and
    indexes only those, so one racing a registration can miss a name
    but never answers a wrong id or reads out of bounds.  Writers
    are externally serialized.  See the "Concurrency model" section of
    DESIGN.md. *)
module Db : sig
  type t

  val create : unit -> t
  (** A fresh, empty database. *)

  val generation : t -> int
  (** The generation of the published {!snapshot}.  It starts at 0 and
      moves by one at each publication: an effective membership edit
      ({!add_member} of a new member, {!remove_member} of a present
      one) outside a {!batch}, or the exit of an outermost batch that
      edited.  It says {e that} something changed, not what.  Compiled
      ACLs do not validate against it: they hold ids, which never
      change.  Capability-handle grants and link-time certificates
      fall back from an unchanged generation to the caller's own
      {!Snapshot.row} ({!Subject.membership_unmoved}), so an edit or a
      registration that moves nobody they depend on revokes
      neither.

      It is read off the published snapshot, so the two never
      disagree: a consumer that needs both reads {!snapshot} once and
      takes {!Snapshot.generation} from it. *)

  val batch : t -> (unit -> 'a) -> 'a
  (** [batch db f] runs [f] and publishes every membership edit it
      makes as one snapshot, under one generation, when the outermost
      batch exits: the transaction a bulk import runs under, so a
      million-member population builds one snapshot and invalidates
      certificates once, not a million times.  Mutations inside the
      batch still land eagerly (validation, cycle rejection and
      idempotence are unchanged); only publication is deferred.
      Nested batches coalesce into the outermost one.  If [f] raises,
      mutations already applied are still published (one snapshot)
      before the exception is re-raised, so no derived artifact can
      outlive them.

      Readers, in other domains or inside [f], see the snapshot
      published before the batch, and everything derived from it
      (compiled-ACL checks, certificates, handles), until the batch
      exits: no published snapshot holds part of a batch.  Live walks
      ({!is_member}, {!direct_members}) read the eager data and are
      not isolated.  Batches do not nest across domains; mutators are
      externally serialized as before. *)

  val in_batch : t -> bool
  (** [true] while inside a {!batch} callback (same domain). *)

  val add_individual : t -> individual -> unit
  (** Register an individual under the next individual id.
      Idempotent.  Publishes nothing: the new individual is a member of
      no group, which every snapshot already says.  The next
      publication counts it. *)

  val add_group : t -> group -> unit
  (** Register a group with no members under the next group id.
      Idempotent; publishes nothing, like {!add_individual}. *)

  val add_member : t -> group -> member -> unit
  (** [add_member db g m] adds [m] to group [g], registering [g] (and
      an individual member) on the fly.  Whether [m] is already there
      is read from [m]'s own direct-group ids ({!direct_groups}), not
      from [g]'s member list.  Validation precedes every mutation: a
      rejected insertion leaves the database — registered groups,
      member lists and the generation — untouched.
      @raise Invalid_argument if adding a group member would create a
      membership cycle. *)

  val remove_member : t -> group -> member -> unit
  (** Remove a direct member; no effect if absent. *)

  val individuals : t -> individual list
  (** All registered individuals, sorted by name. *)

  val mem_individual : t -> individual -> bool
  (** Whether the individual is registered; one hash probe, no
      allocation. *)

  val individual_count : t -> int
  (** Number of registered individuals; O(1). *)

  val groups : t -> group list
  (** All registered groups, sorted by name. *)

  val mem_group : t -> group -> bool
  (** Whether the group is registered; one hash probe, no
      allocation. *)

  val direct_members : t -> group -> member list
  (** Direct members of a group ([[]] for unknown groups). *)

  val direct_groups : t -> member -> group list
  (** The groups that list the member directly, read from the member's
      own index (the reverse of {!direct_members}); [[]] for an unknown
      member.  Sorted by name. *)

  val is_member : t -> individual -> group -> bool
  (** Transitive membership test. *)

  val groups_of : t -> individual -> group list
  (** Every group the individual belongs to, transitively; sorted by
      name.  Read from the published {!snapshot} (one id probe plus
      the individual's precomputed row) rather than a transitive walk
      per registered group, so inside a {!batch} it answers as before
      the batch. *)

  (** A frozen, generation-stamped view of the database's membership
      for the compiled decision path ({!Acl_compiled}): transitive
      group membership flattened into one sorted group-id row per
      individual, which a compiled ACL probes once per group entry
      ({!is_member}).  Snapshots are immutable after construction and
      may be probed from any domain without locking; their probes
      never allocate.

      Ids are the database's, fixed at registration, so every snapshot
      of one database agrees on them.  A snapshot records only how many
      individuals and groups were registered when it was built
      ({!individual_count}, {!group_count}); it reads any id at or
      above those counts as unregistered, a member of nothing, which is
      what that principal was then.  Its {!row}s change with
      membership: a publication replaces exactly the rows that changed
      with fresh arrays, so a consumer that depends on one individual's
      membership can test that individual's row by physical identity.

      Consecutive snapshots share structure.  The per-individual rows
      are stored in chunks of 256, the chunks in blocks of 256 (65,536
      individuals), the blocks in one top array (one pointer per
      65,536 individuals); a probe pays two extra loads for it.  A publication copies the top array and, for each changed
      row, its block and its chunk, sharing every other.  There is no row per
      group.  Every effective edit names the individuals whose rows it
      can change: a member edit names the individual, an edge between
      groups every individual below the member group.  A publication
      recomputes exactly the rows named since the published snapshot,
      each as the groups reachable upward from the individual's direct
      groups, so a member edit costs one row (one id per group above
      the individual), one chunk and one block copy, and the top
      array (16 words at 10{^6} individuals).  Registering a principal
      only appends: the next publication counts it, every existing row
      shared.  So publication cost scales with the edit, registrations
      included, not the population or the group count.  The first
      publication, from a snapshot with no rows, computes every row,
      each group's closure (the group and every group above it) once:
      an individual whose only direct group is [g] gets [g]'s closure
      itself as its row, so many individuals may share one row
      array. *)
  module Snapshot : sig
    type t

    val generation : t -> int
    (** The generation the snapshot was published under; it is the
        published one exactly while this equals {!Db.generation}. *)

    val individual_count : t -> int
    (** How many individuals were registered when the snapshot was
        built: their ids are [0] to [individual_count - 1]. *)

    val group_count : t -> int
    (** How many groups were registered when the snapshot was built:
        their ids are [0] to [group_count - 1]. *)

    val registered_individuals : t -> int
    (** How many individuals the database has registered now, read
        from the name table every snapshot of it shares: at least
        {!individual_count}, since registration publishes nothing.  Ids
        never change, so every id below it names a registered
        individual.  O(1). *)

    type row = private int array
    (** One individual's transitive group row: the sorted ids of every
        group it belongs to.  Immutable; compared by physical identity
        ([==]). *)

    val row : t -> individual_id:int -> row
    (** The individual's row, allocation-free; an id the snapshot reads
        as unregistered (negative, or at or above
        {!individual_count}) gets the shared empty row.  A publication
        replaces each row whose content changed with a fresh array and
        shares every other, so an individual's row stays [==] across
        every publication, registrations included, that does not move
        its membership.  Since rows are immutable, [==] implies equal
        content, whether the two rows are one individual's or two
        individuals' (a full build shares a group's closure array
        between individuals); the converse need not hold, except for
        the empty row: every row that empties is the one shared empty
        array, so an individual that leaves its last group, joins one
        and leaves it again gets back a row [==] to the one it had
        after the first leave. *)

    val individual_id : t -> individual -> int
    (** The individual's fixed id, or [-1] when it has never been
        registered.  The same in every snapshot of the database; an id
        at or above {!individual_count} was registered after this
        snapshot.  Never allocates. *)

    val group_id : t -> group -> int
    (** The group's fixed id, or [-1] when it has never been
        registered; as {!individual_id}. *)

    val is_member : t -> individual_id:int -> group_id:int -> bool
    (** Transitive membership as of the snapshot: a binary probe of
        the individual's sorted group {!row}, allocation-free.  Ids the
        snapshot reads as unregistered (including [-1]) are members of
        nothing. *)
  end

  val snapshot : t -> Snapshot.t
  (** The published snapshot: one atomic load, no allocation.  No
      reader builds one; the writer publishes each after the member
      lists it reads have landed, so a reader that loads it sees every
      row it holds.  Inside a {!batch} it is the snapshot published
      before the batch. *)

  val full_snapshot : t -> Snapshot.t
  (** Always builds from scratch, as the first publication does,
      recomputing every row from the live member lists, stamped with
      the current {!generation}, and does not publish the result.  The
      semantics each publication is held to — for differential tests
      and the S3 benchmark; not for production use. *)
end
