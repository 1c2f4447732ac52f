(** [techmapd]: the mapping-as-a-service daemon.

    A long-lived Unix-domain-socket server that loads gate libraries
    (and their prepared pattern databases) once at startup, then
    serves concurrent [map] / [check] / [sta] / [stats] requests in
    the {!Proto} line protocol. The concurrency model:

    - the thread calling {!run} owns [accept]; each connection gets a
      lightweight systhread that frames requests and writes replies
      (blocking I/O releases the OCaml runtime lock, so many
      connections coexist on one domain);
    - CPU-bound work (mapping, auditing, STA) is submitted to a
      persistent {!Dagmap_core.Parmap} pool in service mode, one
      worker domain per [jobs], so requests run truly in parallel
      while each individual job labels sequentially;
    - backpressure is a bounded in-flight count: past [queue_max] the
      server replies [busy] immediately instead of queueing
      (429-style), and the client retries;
    - per-job isolation: any exception a job raises becomes a
      structured [error] reply on that connection — the daemon never
      dies for a request's sake.

    Shutdown (SIGTERM/SIGINT routed to {!stop}, or a [shutdown]
    request) is a graceful drain: stop accepting, wake idle
    connection readers, let in-flight jobs finish and their replies
    flush, join every thread and worker domain, remove the socket
    file.

    Resilience (DESIGN.md §14): requests may carry a [deadline_ms=]
    budget enforced at admission, during the wait for a worker, and
    while the payload is still arriving — misses get structured
    [deadline_exceeded] errors. All reads and reply writes are
    select-bounded by [io_timeout_s]; connections idle past
    [idle_timeout_s] are reaped by a sweeper in the accept loop. A
    watchdog thread detects jobs overrunning [job_budget_s], fails
    the stuck request, restarts the worker pool in the background,
    and serves requests inline ([degraded=true] in replies) until the
    fresh pool is up. A {!Faultplan} injects crash/delay/drop/
    garble/stall faults through all of these paths for the chaos
    suite.

    Instrumented end-to-end with {!Dagmap_obs}: per-request latency
    histograms and per-verb counters in the metrics registry
    (["serve.*"] names), per-request spans when span collection is
    enabled, and a ring of recent latencies backing the p50/p99 in
    [stats] replies. *)

open Dagmap_genlib
open Dagmap_logic

type config = {
  socket_path : string;
  jobs : int;  (** worker domains (>= 1) mapping requests in parallel *)
  queue_max : int;
      (** in-flight request cap (queued + running) before [busy] *)
  libraries : (string * Libraries.t) list;
      (** preloaded libraries; the first is the default for requests
          that name none. Pattern databases are prepared once here. *)
  resolve_circuit : (string -> Network.t) option;
      (** resolver for [circuit=] requests (named benchmarks,
          generator specs). [Flow.Too_large] out of it answers
          ["too_large"] and [Failure] ["unknown_circuit"]; [None]
          restricts clients to BLIF payloads *)
  verbose : bool;  (** log one line per connection/drain to stderr *)
  io_timeout_s : float;
      (** per-read/-write progress bound once a request is in flight
          on a connection (partial header, payload, reply write);
          [0.] disables. Does not limit idle keep-alive waits — that
          is [idle_timeout_s]'s job. *)
  idle_timeout_s : float;
      (** reap connections with no request in progress after this
          long ([serve.idle_reaped]); [0.] disables *)
  job_budget_s : float;
      (** watchdog wall budget per job; a job past it is failed with
          [watchdog_timeout] and the pool is restarted
          ([serve.watchdog_restarts]); [0.] disables *)
  faults : Faultplan.t;
      (** injected-fault plan for chaos testing; {!Faultplan.none}
          in production *)
}

type t

val create : config -> t
(** Bind and listen on [socket_path] and spawn the worker pool. A
    stale socket file from a dead daemon is replaced; a live one
    (something accepts connections) raises [Failure]. Also ignores
    SIGPIPE — a daemon cannot afford the default disposition. *)

val run : t -> unit
(** Accept/serve until {!stop} (or a [shutdown] request) triggers the
    drain; returns after the drain completes. Call from the thread
    that should own the accept loop. *)

val stop : t -> unit
(** Trigger a graceful drain from any thread or a signal handler:
    async-safe (one atomic store and a pipe write). Idempotent. *)

val requests_served : t -> int
(** Total requests answered with any status (monotone; readable
    while running). *)
