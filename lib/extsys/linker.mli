(** Dynamic linking of extensions into the base system.

    Linking is where the two ways an extension interacts with the
    system are authorized (paper, sections 1.1 and 2.1):

    - every {e import} is resolved through the protected name space
      and requires [Execute] on the target procedure;
    - every {e extends} requires [Extend] on the target event, and on
      success registers the extension's handler (tagged with the
      extension's static class) in the handler set of the very node
      that check admitted;
    - every {e provide} publishes a new procedure under
      [/ext/<name>/], requiring [Write] on [/ext] via the attach rule.

    Linking is transactional: if any check fails, nothing the link
    installed remains, and every handle it minted is closed — partial
    extensions never become part of the system.  The certificate
    enters the kernel only once the extension is loaded.

    Once linked, calls through {!Linked.call} are restricted to the
    import table, and every one is either checked in full or served
    from the import's capability handle, which revalidates: a revoked
    right bites at the next call (bench F5).

    A link costs what the new extension reaches, not what is already
    loaded: the chain analysis runs over {!Kernel.call_graph}'s
    reachable subgraph, and only when that graph can take the code
    past its own imports ({!Exsec_analysis.Callgraph.reaches_only});
    the quota reads the author's kept count
    ({!Kernel.loaded_by}), and the certificate's proofs go straight
    onto the import handles this link minted.  Revoking the
    certificate and unloading touch only those handles too.  Bench
    A11's sweep holds the per-link, per-revocation and per-unload time
    flat from 128 to 1,024 loaded extensions. *)

open Exsec_core

type link_error =
  | Import_denied of { import : Path.t; error : Service.error }
  | Extend_denied of { event : Path.t; error : Service.error }
  | Provide_failed of { at : Path.t; error : Service.error }
  | Init_failed of Service.error
  | Already_loaded of string
  | Quota_refused of string
      (** the author's loaded-extension budget is exhausted *)

val pp_link_error : Format.formatter -> link_error -> unit

module Linked : sig
  type t

  val extension : t -> Extension.t
  val name : t -> string
  val imports : t -> Path.t list
  val provided_paths : t -> Path.t list

  val certificate : t -> Exsec_analysis.Certificate.t option
  (** The link-time certificate issued for this extension's imports —
      present iff the kernel was booted with a clearance registry.
      Its [Always_allow] proofs are recorded on the import handles, so
      {!call} serves every covered subject from them until the
      certificate stops validating for that subject — a policy swap,
      expiry, any metadata change on the import's path, an edit that
      moves the subject's own membership row, or a subject outside the
      proved domain all fall back to the checked path.  An edit that
      moves other principals only leaves the subject proved. *)

  val subject_for : t -> Subject.t -> Subject.t
  (** The given thread's subject with this extension's static class
      applied as a ceiling (identity when the extension is unpinned). *)

  val call :
    t -> subject:Subject.t -> Path.t -> Value.t list ->
    (Value.t, Service.error) result
  (** Call an imported procedure on behalf of [subject].  Only paths
      in the import table are callable — an extension cannot name
      what it was not linked against.  The extension's static class
      caps the subject for the duration of the call.  A covered
      subject whose row the certificate still holds is served from the
      import handle ({!Kernel.call_proved}): the cover found by binary
      search on its id, then the handles' row rule.  Any other call is
      the checked {!Kernel.call}. *)

  val import_handle : t -> Path.t -> Handle.h option
  (** The capability handle minted for this import at link time, if
      the path is in the import table. *)

  val call_import :
    t -> Path.t -> Value.t list -> (Value.t, Service.error) result
  (** Call an imported procedure through its link-time capability
      handle ({!Kernel.call_handle}): the hot path.  Unlike {!call},
      the subject is the {e link-time} (capped) subject baked into the
      grant — capability semantics — and the dispatch skips all
      monitor work while what the grant's decision read holds,
      failing closed into the checked path on any drift.  Unloading
      the extension closes every import handle. *)

  val chain_imports : t -> Path.t list
  (** The provably-redundant {e transitive} call sites the chain
      analysis ({!Exsec_analysis.Chain_certify}) pre-minted at link
      time: targets reachable from this extension's code through other
      extensions' provides (never imported directly) whose monitor
      checks proved [Always_allow] for every registered session.
      Empty without a clearance registry. *)

  val chain_handle : t -> Path.t -> Handle.h option
  (** The pre-minted capability handle for a chain target, minted by a
      monitor decision under the link-time subject: revoking or
      expiring the certificate leaves it serving.  Closed (with the
      extension's import handles) on unload. *)

  val call_chain :
    t -> Path.t -> Value.t list -> (Value.t, Service.error) result
  (** Call a pre-minted chain target through its handle — the same
      45ns fast path as {!call_import}, failing closed on any drift
      (a new policy, ACL or membership churn). *)
end

val link :
  ?profile:Exsec_analysis.Certificate.profile ->
  Kernel.t ->
  subject:Subject.t ->
  Extension.t ->
  (Linked.t, link_error) result
(** Link an extension on the authority of [subject] (the thread
    performing the load; its rights, capped by the extension's static
    class, are what the import/extend checks consult).  [profile]
    constrains the certificate issued for the extension — modes and
    path prefixes outside the profile are never certified, and the
    profile's validity horizon starts the certificate's expiry clock
    ({!Kernel.advance_cert_epoch}).  Linking succeeds either way;
    uncertified imports simply stay on the checked path. *)

val unload : Kernel.t -> subject:Subject.t -> string -> (unit, Service.error) result
(** Remove a loaded extension: its provided procedures leave the name
    space (each removal is checked against [subject]; a path already
    gone counts as removed, so an unload refused part way can be
    retried) and then its handlers leave the sets they joined and the
    import and chain handles its link minted are closed. *)
