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
    readers — member lists are immutable values swapped in place, and
    the atomic generation publishes each change.  Registering {e new}
    groups or individuals grows the name -> id tables and the id
    indexes in place and must happen before readers run in other
    domains (setup-time, or externally synchronized); see the
    "Concurrency model" section of DESIGN.md. *)
module Db : sig
  type t

  val create : unit -> t
  (** A fresh, empty database. *)

  val generation : t -> int
  (** Monotone counter bumped whenever group membership actually
      changes ({!add_member} of a new member, {!remove_member} of a
      present one).  It says {e that} something changed, not what:
      the current {!snapshot} is the one stamped with it.  Compiled
      ACLs do not validate against it: they hold ids, which never
      change.  Capability-handle grants and link-time certificates
      fall back from an unchanged generation to the caller's own
      {!Snapshot.row} ({!Subject.membership_unmoved}), so an edit or a
      registration that moves nobody they depend on revokes
      neither.

      The counter is atomic and follows the data-then-generation
      publication order (see {!Meta.t}): the member-list update lands
      first, the bump after, so a reader that sees the bumped value
      also sees the new membership.  Consumers must read the
      generation {e before} walking memberships and file any derived
      result under that pre-read value.

      Inside a {!batch} the bump is deferred: every mutation of the
      batch publishes under {e one} increment at the outermost batch
      exit, so the snapshot is refreshed, and link-time certificates
      and capability handles re-check, at most once per batch instead
      of once per mutation. *)

  val batch : t -> (unit -> 'a) -> 'a
  (** [batch db f] runs [f], coalescing every generation bump its
      mutations would publish into a single increment when the
      outermost batch exits — the transaction a bulk import runs
      under, so a million-member population invalidates certificates
      once, not a million times.  Mutations inside the batch still
      land eagerly (validation, cycle rejection and idempotence are
      unchanged); only publication is deferred.  Nested batches
      coalesce into the outermost one.  If [f] raises, mutations
      already applied are still published (one bump) before the
      exception is re-raised, so no derived artifact can outlive them.

      Readers in other domains during the batch see the {e previous}
      published state through the snapshot and everything derived from
      it (compiled-ACL checks, certificates, handles): data written by
      the batch only becomes observable-as-current at the final bump, per
      the data-then-generation contract.  {!snapshot} enforces this
      even when its cache is stale at batch entry: while a batch is in
      flight it serves the previously published snapshot rather than
      rebuilding from the half-applied live lists, so no snapshot
      stamped as current can ever expose partial batch state (this
      covers same-domain calls from inside [f] too — the batch's own
      writes are invisible through the snapshot until the final bump).
      Live walks ({!is_member}, {!direct_members}) read the eager data
      and are not isolated.  Batches do not nest across domains;
      mutators are externally serialized as before. *)

  val in_batch : t -> bool
  (** [true] while inside a {!batch} callback (same domain). *)

  val batch_epoch : t -> int
  (** Odd while a {!batch} is in flight; it moves at every outermost
      batch entry and exit, so reads bracketed by one even value
      overlapped no batch (the rule {!snapshot} rebuilds keep). *)

  val add_individual : t -> individual -> unit
  (** Register an individual under the next individual id.
      Idempotent.  Publishes nothing on its own: the new individual is
      a member of no group, which every snapshot already says. *)

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
      name.  Routed through the current {!Snapshot} (one id probe plus
      the individual's precomputed row) rather than a transitive walk
      per registered group; the first call after churn pays the
      snapshot refresh, which scales with the churn delta. *)

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
      membership: a refresh replaces exactly the rows that changed with
      fresh arrays, so a consumer that depends on one individual's
      membership can test that individual's row by physical identity.

      Consecutive snapshots share structure.  The per-individual rows
      are stored in fixed chunks of 256, so a refresh copies the chunk
      spine (one pointer per 256 individuals) and only the chunks
      holding a changed row; a probe pays one extra load for it.  There
      is no row per group.  Every effective edit names the individuals
      whose rows it can change: a member edit names the individual, an
      edge between groups every individual below the member group.  A
      refresh recomputes exactly the rows named since the snapshot it
      starts from, each as the groups reachable upward from the
      individual's direct groups, so a member edit costs one row (one
      id per group above the individual) plus one chunk copy.
      Registering a principal only
      appends: new rows, every existing row shared.  So refresh cost
      scales with the edit, registrations included, not the population
      or the group count. *)
  module Snapshot : sig
    type t

    val generation : t -> int
    (** The database generation the snapshot was built under; it is
        current exactly while this equals the live {!Db.generation}. *)

    val individual_count : t -> int
    (** How many individuals were registered when the snapshot was
        built: their ids are [0] to [individual_count - 1]. *)

    val group_count : t -> int
    (** How many groups were registered when the snapshot was built:
        their ids are [0] to [group_count - 1]. *)

    type row = private int array
    (** One individual's transitive group row: the sorted ids of every
        group it belongs to.  Immutable; compared by physical identity
        ([==]). *)

    val row : t -> individual_id:int -> row
    (** The individual's row, allocation-free; an id the snapshot reads
        as unregistered (negative, or at or above
        {!individual_count}) gets the shared empty row.  A refresh
        replaces each row whose content changed with a fresh array and
        shares every other, so an individual's row stays [==] across
        every refresh, registrations included, that does not move its
        membership.  Since rows are immutable, [==] implies equal
        content (two empty rows are one atom, also equal); the converse
        need not hold. *)

    val no_row : row
    (** A row no snapshot holds: [==] to no {!row} result. *)

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
  (** The current snapshot, rebuilt (and cached) whenever the
      generation has moved since the last build.  While the cached
      snapshot is current the call is one slot load and one
      generation load.  A rebuild reads the generation {e before}
      walking memberships, so a racing mutation leaves the result
      stamped with the older generation and it is rebuilt on the next
      call — the same data-then-generation discipline as {!Meta}.

      While a {!batch} is in flight no rebuild is published: callers
      are served the previously published snapshot (stale by
      generation, so artifacts minted from it never validate past the
      batch), and a rebuild that raced with a batch entry or exit is
      discarded and retried.  Batch writes therefore cannot leak into
      a snapshot that validates as current — see {!batch}.

      Every refresh is incremental: cost scales with the individuals
      the edits since the previous snapshot name, not with the
      population or the group count (see {!Snapshot}).  The first
      snapshot is the same refresh from the empty one, which computes
      every row.

      A refresh keeps every row of the previous snapshot that no edit
      since has named, so a cached snapshot may hold a stale row only
      for an individual that an edit after it names, and the next
      refresh recomputes exactly those: an edit lands its member lists
      before it names anyone, and an edit that does not name an
      individual changes nothing that individual's row is computed
      from.  A held snapshot keeps the record of every edit made after
      it reachable. *)

  val full_snapshot : t -> Snapshot.t
  (** Always rebuilds from scratch, as the refresh from the empty
      snapshot, bypassing the cached snapshot, and does not publish the
      result.  The semantics the incremental path is held to — for
      differential tests and the S3 benchmark; not for production
      use. *)
end
