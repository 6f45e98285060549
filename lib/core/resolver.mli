(** Checked name resolution: the central name server that "enforces
    all protection" (paper, section 2.3).

    Every operation first walks the path, requiring [List] access on
    each interior node traversed — the file-system analogy of search
    permission on directories — and then checks the requested mode on
    the target.  Creation requires [Write] on the parent directory;
    removal requires [Delete] on the target and [Write] on the parent.
    Creation requires discretionary [Write] on the parent directory;
    because containers are multi-level, the mandatory check applies to
    the {e new node's} class (see
    {!Reference_monitor.check_attach}).  Removal requires [Delete] on
    the target plus the same attach rule on the parent.  All checks go
    through the reference monitor and are audited.  Each operation
    reads its context (the policy and the published membership
    snapshot) once and decides every check it makes under it, a
    mutation's last check included. *)

type 'a t

val create : Reference_monitor.t -> 'a Namespace.t -> 'a t
val monitor : 'a t -> Reference_monitor.t
val namespace : 'a t -> 'a Namespace.t

type denial =
  | Denied of { at : Path.t; label : string; mode : Access_mode.t; denial : Decision.denial }
      (** a protection check for [mode] failed at [at]; [label] is [at]
          rendered ({!Path.to_string}).  A denial on a node of the walk
          carries the node's own {!Namespace.label}, so reporting it
          renders nothing. *)
  | Name_error of Namespace.error  (** the name itself is invalid *)

val pp_denial : Format.formatter -> denial -> unit

val resolve :
  ?span:Exsec_obs.Trace.handle ->
  'a t -> subject:Subject.t -> mode:Access_mode.t -> Path.t ->
  ('a Namespace.node, denial) result
(** Traverse to the target (checking [List] on the way) and check
    [mode] on it, threading [span] through every monitor decision made
    along the walk: {!resolve_in} under the monitor's policy and the
    database's published membership snapshot, both read when the call
    starts. *)

val resolve_in :
  ?span:Exsec_obs.Trace.handle ->
  'a t -> Policy.t -> Principal.Db.Snapshot.t -> subject:Subject.t ->
  mode:Access_mode.t -> Path.t -> ('a Namespace.node, denial) result
(** {!resolve} under a policy and a snapshot the caller read: a
    capability-handle mint reads the snapshot before the decision,
    decides under it and keeps the subject's row from it.

    The resolution reads the rest of its context once, when it
    starts: the observability switch and [span] (or
    {!Exsec_obs.Trace.none}).  Every level decides under that context
    ({!Reference_monitor.check_in}), so one resolution decides under
    one membership state even while another domain edits it; each
    object's metadata is read as the walk reaches it.

    When neither metrics nor tracing is on
    ({!Exsec_obs.Trace.observing}) that walk is all it does; otherwise
    the same walk feeds the [resolver.*] metrics (resolve count,
    denial/name-error counts, latency histogram) and, unless an active
    span was handed down, runs under a [resolver.resolve] span of its
    own annotated with the path and mode. *)

val resolve_chain :
  'a t -> Policy.t -> Principal.Db.Snapshot.t -> subject:Subject.t -> mode:Access_mode.t ->
  Path.t -> 'a Namespace.node array -> Meta.t array -> ('a Namespace.node, denial) result
(** {!resolve_in} over a chain the caller read beforehand: [nodes] are
    the path's {!Namespace.chain}, root first, and [metas] the value
    each held when read.  Every level decides on its value in [metas], so a
    capability-handle mint keeps exactly the values its decision read.
    The checks, their audit records, a denial and the [resolver.*]
    metrics and span are {!resolve_in}'s; [nodes] must not be empty. *)

val lookup :
  'a t -> subject:Subject.t -> Path.t -> ('a Namespace.node, denial) result
(** {!resolve} with no mode check on the target itself — visibility is
    still gated by [List] on every ancestor. *)

val list_dir :
  'a t -> subject:Subject.t -> Path.t -> (string list, denial) result
(** Names of the target directory's children; requires [List] on the
    target (and on every ancestor). *)

val create_dir :
  'a t -> subject:Subject.t -> Path.t -> meta:Meta.t ->
  ('a Namespace.node, denial) result

val create_leaf :
  'a t -> subject:Subject.t -> Path.t -> meta:Meta.t -> 'a ->
  ('a Namespace.node, denial) result

val remove :
  ?span:Exsec_obs.Trace.handle ->
  'a t -> subject:Subject.t -> Path.t -> (unit, denial) result
(** Unlink the target in one walk: [List] down to and including the
    parent, the victim found among the parent's entries, [Delete] on
    the victim and the attach rule on the parent — each ancestor is
    checked (and audited) exactly once.  The walk, the [Delete] check
    and the attach rule ({!Reference_monitor.check_attach}) decide
    under one context, read as in {!resolve}. *)

val set_acl :
  'a t -> subject:Subject.t -> Path.t -> Acl.t -> (unit, denial) result
(** Replace the target's ACL; requires [Administrate] on the target.
    The walk and the [Administrate] check decide under one context,
    read as in {!resolve}; a denial at the target carries the node's
    {!Namespace.label}.  The new value is built from the node's current
    one under the tree's lock ({!Namespace.publish}), so a racing
    {!set_class} keeps this ACL and this edit keeps its class. *)

val set_class :
  'a t -> subject:Subject.t -> Path.t -> Security_class.t -> (unit, denial) result
(** Relabel the target; requires [Administrate] on it, decided as in
    {!set_acl}. *)
