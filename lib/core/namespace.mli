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
    directory. *)

val add_leaf : 'a t -> Path.t -> meta:Meta.t -> 'a -> ('a node, error) result

val add_dir_at : 'a t -> 'a node -> string -> meta:Meta.t -> ('a node, error) result
(** [add_dir_at tree parent name ~meta] creates a directory child of
    the already-resolved [parent] node in O(1) — no path re-walk from
    the root.  The bulk-populate primitive: building an n-node tree
    through the path-addressed {!add_dir} costs O(n x depth); through
    this, O(n).
    @raise Invalid_argument if [parent] does not belong to [tree] —
    enforced (nodes carry their owning tree's id), since inserting
    under a foreign node would mutate that tree while corrupting both
    trees' {!size}. *)

val add_leaf_at : 'a t -> 'a node -> string -> meta:Meta.t -> 'a -> ('a node, error) result
(** Leaf counterpart of {!add_dir_at}. *)

val child : 'a node -> string -> 'a node
(** [child dir name] is [dir]'s entry [name]: one probe into the
    directory's hash table, O(1) in the directory's width and with no
    allocation.  It is the step of every walk — {!find}, {!chain} and
    the checked walks of {!Resolver} — so a walk of depth d costs d
    probes however wide its directories are.
    @raise Stdlib.Not_found if [dir] is a leaf or has no entry
    [name]. *)

val find : 'a t -> Path.t -> ('a node, error) result
val mem : 'a t -> Path.t -> bool

val chain : 'a t -> Path.t -> 'a node list option
(** The node sequence a checked resolution of the path consults —
    root, every interior node, then the target, in walk order — or
    [None] when the path does not resolve.  This is the set of nodes
    whose metadata generations a reusable decision (a link-time
    certificate, a capability-handle grant) must be stamped with:
    {!Resolver} checks [List] on every node strictly above the target
    and the caller's mode on the target itself. *)

val remove : 'a t -> Path.t -> (unit, error) result
(** Remove a leaf or an {e empty} directory; the root cannot be
    removed.  The removed node's metadata is {!Meta.touch}ed after
    the unlink, so grants and proofs through it fail closed. *)

val meta : 'a node -> Meta.t
val path : 'a node -> Path.t

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
