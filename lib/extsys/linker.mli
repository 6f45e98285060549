(** Dynamic linking of extensions into the base system.

    Linking is where the two ways an extension interacts with the
    system are authorized (paper, sections 1.1 and 2.1):

    - every {e import} is resolved through the protected name space
      and requires [Execute] on the target procedure;
    - every {e extends} requires [Extend] on the target event, and on
      success registers the extension's handler (tagged with the
      extension's static class) in the dispatcher;
    - every {e provide} publishes a new procedure under
      [/ext/<name>/], requiring [Write] on [/ext] via the attach rule.

    Linking is transactional: if any check fails, nothing the link
    installed remains — partial extensions never become part of the
    system.

    Once linked, calls through {!Linked.call} are restricted to the
    import table, and every one is either checked in full or served
    from the import's capability handle, which revalidates: a revoked
    right bites at the next call (bench F5). *)

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
      certificate stops validating — a policy swap, covered membership
      churn, any metadata change on the import's path, or a subject
      outside the proved domain all fall back to the checked path. *)

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
      subject is served from the import handle ({!Kernel.call_proved});
      any other call is the checked {!Kernel.call}. *)

  val import_handle : t -> Path.t -> Handle.h option
  (** The capability handle minted for this import at link time, if
      the path is in the import table. *)

  val call_import :
    t -> Path.t -> Value.t list -> (Value.t, Service.error) result
  (** Call an imported procedure through its link-time capability
      handle ({!Kernel.call_handle}): the hot path.  Unlike {!call},
      the subject is the {e link-time} (capped) subject baked into the
      grant — capability semantics — and the dispatch skips all
      monitor work while the grant's generation coordinates hold,
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
  (** The pre-minted capability handle for a chain target.  Closed
      (with every other handle of this caller) on unload. *)

  val call_chain :
    t -> Path.t -> Value.t list -> (Value.t, Service.error) result
  (** Call a pre-minted chain target through its handle — the same
      45ns fast path as {!call_import}, failing closed on any drift
      (policy epoch bump, ACL or membership churn). *)
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
(** Remove a loaded extension: its handlers leave the dispatcher and
    its provided procedures leave the name space (each removal is
    checked against [subject]). *)
