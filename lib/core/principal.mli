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

    Concurrency: membership churn on {e already-registered} groups and
    individuals ([add_member]/[remove_member]) is safe concurrent with
    readers — member lists are immutable values swapped through a
    reference, and the atomic generation publishes each change.
    Registering {e new} groups or individuals restructures internal
    tables and must happen before readers run in other domains
    (setup-time, or externally synchronized); see the "Concurrency
    model" section of DESIGN.md. *)
module Db : sig
  type t

  val create : unit -> t
  (** A fresh, empty database. *)

  val generation : t -> int
  (** Monotone counter bumped whenever group membership actually
      changes ({!add_member} of a new member, {!remove_member} of a
      present one).  It says {e that} something changed, not what:
      the current {!snapshot} is the one stamped with it, and
      link-time certificates record it beside their per-group
      {!dirty_stamp}s.  Compiled ACLs and capability-handle grants do
      not validate against it: a compiled ACL keys on the snapshot's
      {!Snapshot.interning}, and a grant falls back from an unchanged
      generation to its subject's own {!Snapshot.row}, so an edit
      that moves nobody they depend on revokes neither.

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

  val add_individual : t -> individual -> unit
  (** Register an individual.  Idempotent. *)

  val add_group : t -> group -> unit
  (** Register a group with no members.  Idempotent. *)

  val add_member : t -> group -> member -> unit
  (** [add_member db g m] adds [m] to group [g], registering [g] (and
      an individual member) on the fly.  Validation precedes every
      mutation: a rejected insertion leaves the database — registered
      groups, member lists and the generation — untouched.
      @raise Invalid_argument if adding a group member would create a
      membership cycle. *)

  val remove_member : t -> group -> member -> unit
  (** Remove a direct member; no effect if absent. *)

  val individuals : t -> individual list
  (** All registered individuals, sorted by name. *)

  val mem_individual : t -> individual -> bool
  (** Whether the individual is registered; O(log n), no
      allocation. *)

  val individual_count : t -> int
  (** Number of registered individuals; O(1). *)

  val groups : t -> group list
  (** All registered groups, sorted by name. *)

  val direct_members : t -> group -> member list
  (** Direct members of a group ([[]] for unknown groups). *)

  val is_member : t -> individual -> group -> bool
  (** Transitive membership test. *)

  val dirty_stamp : t -> group -> int
  (** The generation at which the group's direct member list last
      changed (0 if never, including unknown groups).  Monotone per
      group: each effective {!add_member}/{!remove_member} stamps the
      group with a value strictly above every generation already
      published, written {e before} the generation bump.  Scoped
      consumers (link-time certificates) record the stamp of every
      group their proof consulted and revalidate against it, so
      membership churn in unrelated groups revokes nothing. *)

  val group_closure : t -> group -> group list
  (** [grp] plus every group transitively reachable from it through
      member edges — the set of groups whose member-list edits can
      change any [is_member _ grp] answer.  While every closure
      member's {!dirty_stamp} is unchanged, so is the transitive
      member set (the first effective edit below [grp] necessarily
      lands on a group that was reachable when the closure was
      computed).  Sorted by name. *)

  val groups_of : t -> individual -> group list
  (** Every group the individual belongs to, transitively; sorted.
      Routed through the current {!Snapshot} (one id probe plus the
      individual's precomputed row) rather than a transitive walk per
      registered group; the first call after churn pays the snapshot
      refresh, which scales with the churn delta. *)

  (** A frozen, generation-stamped view of the database for the
      compiled decision path ({!Acl_compiled}): registered individuals
      and groups interned to dense integer ids, transitive group
      membership flattened into one sorted group-id row per
      individual, which a compiled ACL probes once per group entry
      ({!is_member}).  Snapshots are immutable after construction and
      may be probed from any domain without locking; their probes
      never allocate.

      A snapshot has two parts that change at different rates.  Its
      {!interning} (the name -> id tables) changes only when a
      principal is registered; its {!row}s change with membership.  A
      refresh over an unchanged population keeps the interning and
      replaces exactly the rows that changed with fresh arrays, so a
      consumer that depends on one individual's membership can test
      that individual's row by physical identity.

      Consecutive snapshots share structure.  The per-individual rows
      are stored in fixed chunks of 256, so a refresh copies the chunk
      spine (one pointer per 256 individuals) and only the chunks
      holding a changed row; a probe pays one extra load for it.  Each
      group keeps two sorted individual-id rows, its direct members and
      its transitive closure.  When no principal was registered in
      between, a refresh recomputes each group whose member list
      changed (its direct row merged with its children's closures) and
      diffs it against its old closure; each group above it, found
      through the reverse-membership index, re-tests only the
      individuals that changed below it, against its own direct row and
      its children's new closures.  Every untouched row and both intern
      tables are shared with the predecessor, so refresh cost scales
      with the edit, not the population. *)
  module Snapshot : sig
    type t

    val generation : t -> int
    (** The database generation the snapshot was built under; it is
        current exactly while this equals the live {!Db.generation}. *)

    type interning
    (** The snapshot's name -> id tables: which individuals and groups
        exist, and their dense ids.  Compared by physical identity
        ([==]).  Only a full build makes a new one, and a full build
        follows every registration; each delta refresh shares its
        predecessor's.  Equal interning means equal ids for every
        name, so anything keyed by ids (a compiled ACL, a subject's
        remembered id) stays meaningful across membership churn. *)

    val interning : t -> interning

    type row
    (** One individual's transitive group row.  Immutable; compared by
        physical identity ([==]). *)

    val row : t -> individual_id:int -> row
    (** The individual's row, allocation-free; an out-of-range id
        (including [-1]) gets the shared empty row.  A delta refresh
        replaces each row whose content changed with a fresh array and
        shares every other, so within one {!interning} an
        individual's row stays [==] across every refresh that does not
        move its membership.  Since rows are immutable, [==] implies
        equal content (two empty rows are one atom, also equal); the
        converse need not hold. *)

    val no_row : row
    (** A row no snapshot holds: [==] to no {!row} result. *)

    val individual_id : t -> individual -> int
    (** The individual's dense id, or [-1] when it was not registered
        at snapshot time.  Never allocates. *)

    val group_id : t -> group -> int
    (** The group's dense id, or [-1] when unknown at snapshot time. *)

    val is_member : t -> individual_id:int -> group_id:int -> bool
    (** Transitive membership as of the snapshot: a binary probe of
        the individual's sorted group {!row}, allocation-free.
        Out-of-range ids (including [-1]) are members of nothing. *)
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

      Refreshes are incremental whenever the registered population is
      unchanged since the previous snapshot: cost scales with the
      groups dirtied since then and the memberships that changed (see
      {!Snapshot}).  Registering new individuals or groups falls back
      to a full rebuild.

      A refresh patches rows of the previous snapshot, so no build that
      could hold rows inconsistent with each other is ever cached: a
      group's old rows are reused or patched only while its
      {!dirty_stamp} is at most the old snapshot's generation (a group
      stamped above it is recomputed from the live lists), and a build
      whose walk meets a group already in progress, which only a
      mutator racing with the walk can cause, is discarded and the call
      decides again. *)

  val full_snapshot : t -> Snapshot.t
  (** Always rebuilds from scratch, bypassing the cached snapshot and
      the delta path, and does not publish the result.  The seed
      semantics the incremental path is held to — for differential
      tests and the S3 benchmark; not for production use. *)
end
