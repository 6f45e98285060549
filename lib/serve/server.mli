(** The request-serving daemon: a domain-per-core accept/worker loop
    feeding the kernel.

    One accept domain pulls connections off the transport and queues
    them; [workers] worker domains each serve one connection at a time
    to completion.  Per connection the server:

    + demands a {!Wire.Hello} first and authenticates its credentials
      — the principal must be registered in the kernel's
      {!Exsec_core.Principal.Db}, and when the kernel was booted with
      a {!Exsec_core.Clearance} registry the session is established
      through it ([authenticate] when a secret is presented, [login]
      otherwise), so a session can never start above its registered
      clearance;
    + mints the connection's {!Exsec_core.Subject.t} once, and runs
      every subsequent {!Wire.op} under it through
      {!Exsec_extsys.Kernel.call} / [call_handle] / the resolver;
    + applies backpressure through the lock-free
      {!Exsec_extsys.Quota}: an over-budget principal's request is
      answered with a clean {!Wire.Busy} and the connection kept open —
      never a dropped socket;
    + scopes capability handles to the connection: wire handle ids
      index a per-connection table of at most 1,024 open handles (an
      [Open_handle] beyond it is refused with
      [Wire.Error (Quota_exceeded _)] and mints nothing; closing a
      handle frees its slot), and every handle still open when the
      connection ends is closed (capability revocation on
      disconnect).

    Instrumentation (all through {!Exsec_obs.Metrics}, so it shows in
    [exsecd metrics] and the introspect procs): [serve.connections],
    [serve.auth_failures], [serve.requests], [serve.responses],
    [serve.busy], [serve.request_errors], [serve.protocol_errors], a
    global [serve.request_ns] histogram and per-endpoint
    [serve.<op>.requests] counters with [serve.<op>_ns] histograms. *)

open Exsec_extsys

type t

val create : ?workers:int -> ?name:string -> Kernel.t -> Transport.t -> t
(** [workers] (default [Domain.recommended_domain_count () - 1],
    clamped to [1, 8]) bounds concurrently served connections; later
    connections wait in the accept queue.  [name] (default ["serve"])
    prefixes the per-connection caller identity
    ["<name>:<principal>#<n>"] seen by audit and trace. *)

val start : t -> unit
(** Spawn the accept domain and the worker pool.  Idempotent. *)

val stop : t -> unit
(** Shut the transport down, drain the accept queue and join every
    domain.  Connections still being served run to their natural end
    (peer close) first — call after clients have disconnected, or
    close their connections to unblock workers. *)

val workers : t -> int
