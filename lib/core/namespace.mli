(** The universal protected name space (paper, section 2.3).

    One tree names every protected object in the system.  Leaves are
    the individual procedures/methods of system services; interior
    nodes are objects, interfaces, packages, domains or directories.
    Every node — interior or leaf — carries its own {!Meta.t}, so
    access to {e each level} of the hierarchy is protected.

    This module is the raw, unchecked store; {!Resolver} layers the
    reference-monitor checks over it.  The leaf payload type is a
    parameter so the same name space can hold service procedures,
    files, or test fixtures. *)

type 'a node
type 'a t

type error =
  | Not_found of Path.t
  | Already_exists of Path.t
  | Not_a_directory of Path.t
  | Is_a_directory of Path.t
  | Directory_not_empty of Path.t

val pp_error : Format.formatter -> error -> unit

val create : root_meta:Meta.t -> unit -> 'a t
val root : 'a t -> 'a node

val add_dir : 'a t -> Path.t -> meta:Meta.t -> ('a node, error) result
(** Create an interior node; the parent must already exist and be a
    directory; a parent removed before the insert locks answers
    [Not_found], as in {!add_dir_at}. *)

val add_leaf : 'a t -> Path.t -> meta:Meta.t -> 'a -> ('a node, error) result

val add_dir_at : 'a t -> 'a node -> string -> meta:Meta.t -> ('a node, error) result
(** [add_dir_at tree parent name ~meta] creates a directory child of
    the already-resolved [parent] node in O(1) — no path re-walk from
    the root.  The bulk-populate primitive: building an n-node tree
    through the path-addressed {!add_dir} costs O(n x depth); through
    this, O(n).  A [parent] already {!remove}d answers [Not_found] with
    its path and adds nothing: no insert lands where no walk reaches.
    @raise Invalid_argument if [parent] does not belong to [tree] —
    enforced (nodes carry their owning tree's id), since inserting
    under a foreign node would mutate that tree while corrupting both
    trees' {!size}. *)

val add_leaf_at : 'a t -> 'a node -> string -> meta:Meta.t -> 'a -> ('a node, error) result
(** Leaf counterpart of {!add_dir_at}. *)

val child : 'a node -> string -> 'a node
(** [child dir name] is [dir]'s entry [name]: one probe into the
    directory's string-keyed table ([String.equal], not polymorphic
    [compare]), O(1) in the directory's width and with no allocation.
    It is the step of every walk — {!find}, {!chain} and the checked
    walks of {!Resolver} — so a walk of depth d costs d probes however
    wide its directories are.
    @raise Stdlib.Not_found if [dir] is a leaf or has no entry
    [name]. *)

val find : 'a t -> Path.t -> ('a node, error) result
(** The walk descends the path itself ({!Path.up}, {!Path.last}):
    root first, one {!child} probe per segment, no segment list and
    no closure, so it allocates only the [Ok] it returns.  The
    recursion is as deep as the path.  A missing name is
    [Not_found target]; a leaf met mid-path is [Not_a_directory] of
    the leaf's path. *)

val mem : 'a t -> Path.t -> bool

val chain : 'a t -> Path.t -> 'a node list option
(** The node sequence a checked resolution of the path consults —
    root, every interior node, then the target, in walk order — or
    [None] when the path does not resolve.  These are the nodes whose
    values a reusable decision (a link-time certificate, a
    capability-handle grant) keeps: {!Resolver} checks [List] on every
    node strictly above the target and the caller's mode on the target
    itself. *)

val remove : 'a t -> Path.t -> (unit, error) result
(** Remove a leaf or an {e empty} directory; the root cannot be
    removed.  After the unlink the removed node is retired: it holds a
    {!Meta.copy} of its value, so no grant or proof that kept the value
    finds it there again. *)

val meta : 'a node -> Meta.t
(** The node's current value: one load, no lock.  Whatever is
    decided from it stays right while the node still holds that very
    value ([==]). *)

val holds : 'a node array -> Meta.t array -> bool
(** Whether every node of [nodes] still holds the value at its index in
    [metas] ([==] each; [metas] at least as long as [nodes]): the chain
    test of a grant that kept the values its decision read.  One node
    load and one compare per node; allocates nothing. *)

val publish : 'a t -> 'a node -> (Meta.t -> Meta.t) -> unit
(** [publish tree node next] stores [next current] as [node]'s value
    under the tree's lock, so racing publications each build on the
    value the last one stored (a relabel and an ACL edit both land).
    [next] should build a new value ({!Meta.with_acl} and the like).
    This is the raw store; {!Resolver.set_acl} and
    {!Resolver.set_class} check [Administrate] first.
    @raise Invalid_argument if [node] does not belong to [tree]. *)

val path : 'a node -> Path.t
(** The node's own path: its parent's path plus one segment, shared
    with the parent ({!Path.child}). *)

val label : 'a node -> string
(** The node's path rendered once at insertion ([Path.to_string]);
    used as the audit object name on hot paths. *)

val is_dir : 'a node -> bool

val payload : 'a node -> 'a option
(** [Some] for leaves, [None] for directories. *)

val children : 'a node -> (string * 'a node) list
(** Every entry of the directory, sorted by name; [[]] for leaves.
    Folds and sorts the whole table, O(w log w) time and allocation
    for a directory of w entries: meant for listing ({!iter},
    {!fold}, [Resolver.list_dir]), never for finding one name — use
    {!child} for that. *)

val size : 'a t -> int
(** Total number of nodes, root included.  O(1): a counter maintained
    by insertion and removal, not a tree fold. *)

val iter : 'a t -> ('a node -> unit) -> unit
(** Preorder traversal over every node. *)

val fold : 'a t -> init:'b -> f:('b -> 'a node -> 'b) -> 'b
