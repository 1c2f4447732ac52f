(** Multicore labeling: the paper's DP, level-parallel on OCaml 5
    domains.

    A node's optimal label depends only on nodes at strictly smaller
    {!Subject.levels}, so each topological level is an independent
    front: the sweep runs level by level, fanning the nodes of a
    level across a domain pool with work-stealing chunks and a
    spawn/join barrier between levels. Labels, best matches, netlist
    and delay are {e bit-identical} to the sequential {!Mapper} —
    each label is a pure function of lower-level labels and every
    node is written by exactly one worker — which the test suite
    asserts for 1, 2 and 4 domains.

    Each worker owns a private {!Matchdb.cache}; aggregate hit/miss
    counters are summed into the returned {!Mapper.stats} (the split
    between workers depends on the stealing schedule, the totals'
    invariants do not). *)

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
    under [jobs * chunk_min] nodes is labeled on the calling domain
    instead of fanning out (one contended fetch_and_add per node
    costs more than the matching it schedules). Exported so the
    scheduling regression tests can state their bounds in terms of
    the real policy. *)

val fanout_threshold : int -> int
(** [fanout_threshold jobs = jobs * chunk_min]: below this many nodes
    a level runs on the calling domain. Exported so other
    level-synchronous sweeps (the arena cut enumerator) apply the
    same fall-back policy. *)

val chunk_for : jobs:int -> int -> int
(** Chunk size for a level of the given width, floored at
    {!chunk_min}. *)

val steal_chunks :
  cursor:int Atomic.t ->
  chunks_claimed:int Atomic.t ->
  chunk:int ->
  hi:int ->
  (int -> unit) ->
  unit
(** Claim dense [chunk]-sized slices of positions below [hi] through
    [cursor] (pre-set by the caller to the first position) and apply
    the callback to each claimed position — the work-stealing
    protocol shared by every level-parallel sweep (boxed labeler,
    arena labeler, arena cut enumerator). Callbacks must not raise;
    trap exceptions into an [Atomic.t] and re-raise after the
    barrier, as {!label} does. *)

(** {1 Persistent domain pool}

    The pool that backs the level sweep, exported for other
    fan-out/barrier workloads (supergate enumeration uses it) and, in
    service mode, for the [techmapd] request scheduler. A pool of
    size [s] keeps [s] worker domains alive and serves two request
    protocols:

    - {b barrier mode} ({!run_pool}): one task per worker {e and} on
      the calling domain, so a task sees worker indices [0 .. s]
      ([s] = the caller). Tasks must not raise — trap exceptions into
      an [Atomic.t] and re-raise after the barrier, as {!label} does.
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
    returns when all have finished. Not reentrant. *)

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

val label :
  ?jobs:int ->
  ?cache:bool ->
  ?pi_arrival:(int -> float) ->
  Mapper.mode ->
  Matchdb.t ->
  Subject.t ->
  float array
  * Matcher.mtch option array
  * (int * int * int * int * int * int)
  * par_stats
(** Parallel labeling pass. [jobs] defaults to {!recommended_jobs};
    [cache] (default true) enables per-worker match caches. The int
    tuple is (matches tried, supergate matches tried, patterns tried,
    cache hits, cache misses, cache lookups). Raises {!Mapper.Unmappable}
    exactly when the sequential pass would. *)

val map :
  ?jobs:int ->
  ?cache:bool ->
  Mapper.mode ->
  Matchdb.t ->
  Subject.t ->
  Mapper.result * par_stats
(** Parallel labeling + (sequential, output-driven) cover
    construction. The {!Mapper.result} is bit-identical to
    [Mapper.map mode db g]; timings in [run] are monotonic wall
    seconds from the same {!Dagmap_obs.Clock} the sequential mapper
    uses, so 1-vs-N-domain comparisons are on one time base. *)

(** {1 Arena-native labeling}

    The same level-synchronous sweep running directly on the flat
    {!Arena}: parallel fronts are dense index ranges of the
    counting-sorted {!Arena.level_ranges} order array (workers claim
    contiguous [int] slices through the atomic cursor — no per-level
    boxed node lists, no allocation on the claim path), and arrival
    labels land in the off-heap {!Arena_map.labels} vector. This is
    the million-node hot path: [techmap map --arena --jobs N] and the
    huge bench tier label here. *)

val label_arena :
  ?jobs:int ->
  ?cache:bool ->
  ?pi_arrival:(int -> float) ->
  Mapper.mode ->
  Matchdb.t ->
  Arena.t ->
  Arena_map.labels
  * Matcher.mtch option array
  * (int * int * int * int * int * int)
  * par_stats
(** Parallel arena labeling pass; mirrors {!label} ([cache] enables
    one private {!Arena_map.cache} per worker). Bit-identical to the
    sequential {!Arena_map.label} — same labels, best matches and
    matches-tried counts — for every [jobs]; raises
    {!Mapper.Unmappable} exactly when it would. *)

val map_arena :
  ?jobs:int ->
  ?cache:bool ->
  ?subject:Subject.t ->
  Mapper.mode ->
  Matchdb.t ->
  Arena.t ->
  Mapper.result * par_stats
(** Parallel arena labeling + sequential {!Arena_map.cover},
    returning a plain {!Mapper.result} like {!Arena_map.map} (which
    it is bit-identical to, jobs notwithstanding). [subject] avoids a
    redundant {!Arena.to_subject} when the caller already holds the
    boxed view; it must describe the same graph. *)
