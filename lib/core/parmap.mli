(** The OCaml 5 domain pool and the one level sweep.

    A node's optimal label depends only on nodes at strictly smaller
    {!Subject.levels}, so each topological level is an independent
    front. {!sweep} visits a subject graph level by level, fans the
    nodes of a wide level across the pool with work-stealing chunks,
    and waits at a barrier between levels. The labeling DP
    ({!Mapper.label}) and the priority-cut engine ([Cut_mapper.map])
    both call it and own no scheduling code. Supergate enumeration
    uses the pool's barrier directly; the daemon uses the pool's
    service mode. *)

open Dagmap_subject

type par_stats = {
  domains : int;            (** domains actually used (>= 1) *)
  levels : int;             (** topological levels swept *)
  widest_level : int;       (** nodes in the widest level *)
  level_seconds : float array;
      (** monotonic wall-clock per level ({!Dagmap_obs.Clock}) *)
  parallel_levels : int;
      (** levels wide enough to fan across the pool (the rest ran on
          the calling domain) *)
  chunks : int;
      (** work-stealing chunks handed out by the atomic cursor across
          all parallel levels *)
}

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val chunk_min : int
(** Minimum work-stealing chunk: a worker never claims fewer than
    this many nodes per trip through the atomic cursor, and a level
    under [jobs * chunk_min] nodes runs on the calling domain instead
    of fanning out (one contended fetch_and_add per node costs more
    than the matching it schedules). Exported so the scheduling
    regression tests can state their bounds in terms of the real
    policy. *)

val sweep : ?jobs:int -> Subject.t -> (int -> int -> unit) -> par_stats
(** [sweep ?jobs a f] calls [f worker node] exactly once for every
    node of [a], in the order of {!Subject.level_ranges}, finishing
    each level before starting the next. [worker] is in
    [0 .. jobs - 1] and identifies the calling domain, so [f] may
    keep per-worker accumulators; a level that runs on the calling
    domain uses [jobs - 1]. [jobs] (default 1) is clamped to >= 1;
    with [jobs > 1] the sweep owns a pool for its duration.

    Calls within one level may run concurrently, so [f] must write
    only state owned by [node] and read only state of lower levels.
    If [f] raises, the sweep stops and re-raises the first exception;
    a fanned-out level finishes its other chunks first.

    The sweep records one span per level (when tracing), the
    [parmap.level_seconds] histogram and the [parmap.chunks] and
    [parmap.parallel_levels] counters. *)

(** {1 Persistent domain pool}

    The pool that backs {!sweep}, exported for other fan-out/barrier
    workloads (supergate enumeration uses it) and, in service mode,
    for the [techmapd] request scheduler. A pool of
    size [s] keeps [s] worker domains alive and serves two request
    protocols:

    - {b barrier mode} ({!run_pool}): one task per worker {e and} on
      the calling domain, so a task sees worker indices [0 .. s]
      ([s] = the caller).
    - {b service mode} ({!submit}/{!drain}): independent fire-and-
      forget jobs picked up by any idle worker; exceptions escaping a
      job are swallowed (trap them in the closure if the outcome
      matters). The calling domain does not participate.

    Dedicate a pool to one protocol at a time — barriers and queued
    jobs share the worker loop but their interleaving is unspecified. *)

type pool

val make_pool : int -> pool
(** [make_pool s] spawns [s] worker domains (the caller is worker
    [s], so [make_pool (jobs - 1)] gives [jobs]-way parallelism in
    barrier mode). If a spawn fails mid-way (domain limit), the
    domains already started are shut down and joined before the
    exception propagates — repeated init/teardown never leaks
    domains. *)

val pool_size : pool -> int
(** Worker domains in the pool (the caller is not counted). *)

val run_pool : pool -> (int -> unit) -> unit
(** [run_pool p task] runs [task w] for every [w] in [0 .. s] and
    returns when all have finished. A task that raises ends only its
    own share of the work: the barrier still completes, and the
    first exception is re-raised to the caller afterwards. The pool
    stays usable. Not reentrant. *)

val submit : pool -> (unit -> unit) -> bool
(** [submit p job] enqueues [job] for any idle worker and returns
    immediately; [false] (job dropped) if the pool is shut down or
    has no workers. Unbounded — callers wanting backpressure bound
    their own in-flight count, as the daemon does. *)

val drain : pool -> unit
(** Block until no submitted job is queued or running. Quiescence,
    not shutdown: the pool is reusable afterwards. *)

val drain_for : pool -> seconds:float -> bool
(** Like {!drain}, but give up after [seconds]: [true] means the pool
    quiesced, [false] that jobs were still queued or running at the
    deadline (the pool is untouched either way). Supervisors use this
    so a wedged job cannot pin a shutdown path forever. *)

val pending : pool -> int * int
(** [(queued, running)] service-mode jobs right now — a snapshot for
    health monitoring; both counts move concurrently. *)

val shutdown_pool : pool -> unit
(** Joins the worker domains; queued-but-unstarted jobs are dropped
    (call {!drain} first for a graceful stop). Idempotent — extra
    calls, including concurrent ones, are no-ops. The pool must not
    be used afterwards. *)
