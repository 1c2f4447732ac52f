open Dagmap_subject
open Dagmap_obs

(* Level-parallel labeling.

   The labeling DP is a topological-order recurrence, but a node's
   label depends only on nodes at strictly smaller levels
   (Subject.levels): within one level every Mapper.label_node call is
   independent. So we sweep the levels in order and fan each level's
   nodes across a pool of domains. Determinism comes for free from
   the dependency structure, not from the schedule: each node's label
   is a pure function of lower-level labels, every node is written by
   exactly one worker, and the level barrier makes lower levels
   visible before anyone reads them — so labels and best matches are
   bit-identical to the sequential pass no matter how the
   work-stealing interleaves.

   Match caches are per-worker (Matchdb.cache is not thread-safe);
   cached and uncached lookups return identical match lists, so the
   caches do not perturb determinism either — only the hit/miss split
   across workers varies run to run. *)

type par_stats = {
  domains : int;
  levels : int;
  widest_level : int;
  level_seconds : float array;
  parallel_levels : int;
  chunks : int;
}

let recommended_jobs () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Persistent domain pool                                              *)
(* ------------------------------------------------------------------ *)

(* Deep circuits have hundreds of levels; spawning domains per level
   would drown the matching work in spawn latency. The pool keeps
   [size] worker domains alive for the whole sweep and releases each
   level through a generation counter + condition variable; the
   caller doubles as the last worker. Tasks must not raise (the
   labeler traps exceptions into an Atomic and re-raises after the
   barrier). *)
type pool = {
  size : int;                        (* worker domains, caller excluded *)
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  idle : Condition.t;
  mutable task : (int -> unit) option;
  mutable generation : int;
  mutable active : int;
  mutable queue : (unit -> unit) Queue.t;  (* service-mode jobs *)
  mutable running : int;                   (* service-mode jobs in flight *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
}

(* A worker serves two request kinds over one condition variable: the
   barrier protocol of run_pool (a generation bump releases one task
   per worker) and the task-queue protocol of submit (independent
   jobs, any worker). Queued jobs take priority; in practice a pool is
   dedicated to one protocol for its lifetime (labeling uses the
   barrier, the techmapd daemon uses the queue). *)
let worker pool w =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while
      (not pool.shutdown)
      && pool.generation = !seen
      && Queue.is_empty pool.queue
    do
      Condition.wait pool.start pool.mutex
    done;
    if pool.shutdown then Mutex.unlock pool.mutex
    else if not (Queue.is_empty pool.queue) then begin
      let job = Queue.pop pool.queue in
      pool.running <- pool.running + 1;
      Mutex.unlock pool.mutex;
      (* Job isolation: a raising job must never take the worker (and
         with it the whole pool) down. Submitters that care about the
         outcome trap it inside the job closure. *)
      (try job () with _ -> ());
      Mutex.lock pool.mutex;
      pool.running <- pool.running - 1;
      if pool.running = 0 && Queue.is_empty pool.queue then
        Condition.broadcast pool.idle;
      Mutex.unlock pool.mutex;
      loop ()
    end
    else begin
      seen := pool.generation;
      let task = Option.get pool.task in
      Mutex.unlock pool.mutex;
      task w;
      Mutex.lock pool.mutex;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.finished;
      Mutex.unlock pool.mutex;
      loop ()
    end
  in
  loop ()

let make_pool size =
  let pool =
    { size; mutex = Mutex.create (); start = Condition.create ();
      finished = Condition.create (); idle = Condition.create ();
      task = None; generation = 0; active = 0; queue = Queue.create ();
      running = 0; shutdown = false; domains = [] }
  in
  (* Spawn one at a time, keeping every live domain reachable from
     pool.domains, so a mid-way spawn failure (domain limit) can shut
     down and join the ones already running instead of leaking them
     blocked on the condition variable forever. *)
  (try
     for w = 0 to size - 1 do
       pool.domains <- Domain.spawn (fun () -> worker pool w) :: pool.domains
     done
   with e ->
     Mutex.lock pool.mutex;
     pool.shutdown <- true;
     Condition.broadcast pool.start;
     Mutex.unlock pool.mutex;
     List.iter Domain.join pool.domains;
     pool.domains <- [];
     raise e);
  pool

(* Run [task w] on every worker (w in 0..size-1) and on the caller
   (w = size); returns when all have finished. *)
let run_pool pool task =
  Mutex.lock pool.mutex;
  pool.task <- Some task;
  pool.generation <- pool.generation + 1;
  pool.active <- pool.size;
  Condition.broadcast pool.start;
  Mutex.unlock pool.mutex;
  task pool.size;
  Mutex.lock pool.mutex;
  while pool.active > 0 do
    Condition.wait pool.finished pool.mutex
  done;
  Mutex.unlock pool.mutex

let pool_size pool = pool.size

let submit pool job =
  Mutex.lock pool.mutex;
  if pool.shutdown || pool.size = 0 then begin
    Mutex.unlock pool.mutex;
    false
  end
  else begin
    Queue.push job pool.queue;
    Condition.signal pool.start;
    Mutex.unlock pool.mutex;
    true
  end

let drain pool =
  Mutex.lock pool.mutex;
  while not (Queue.is_empty pool.queue && pool.running = 0) do
    Condition.wait pool.idle pool.mutex
  done;
  Mutex.unlock pool.mutex

let pending pool =
  Mutex.lock pool.mutex;
  let queued = Queue.length pool.queue and running = pool.running in
  Mutex.unlock pool.mutex;
  (queued, running)

(* Bounded quiescence wait for supervisors that cannot afford an
   unbounded [drain] — a wedged job must not pin the daemon's
   shutdown path forever. Condition variables have no timed wait in
   the stdlib, so this polls; the period is coarse enough to cost
   nothing and fine enough that the caller's timeout is honored to
   within ~10ms. *)
let drain_for pool ~seconds =
  let deadline = Clock.now () +. seconds in
  let rec go () =
    let queued, running = pending pool in
    if queued = 0 && running = 0 then true
    else if Clock.now () >= deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* Idempotent: the daemon's signal path may race a normal teardown,
   and double-joining a domain is an error. The first caller flips
   [shutdown] under the lock and owns the joins; later callers see the
   flag and return. Workers finish their current job/task before
   exiting (Domain.join waits for that), but queued-not-yet-started
   jobs are dropped — call [drain] first for a graceful stop. *)
let shutdown_pool pool =
  Mutex.lock pool.mutex;
  if pool.shutdown then Mutex.unlock pool.mutex
  else begin
    pool.shutdown <- true;
    Condition.broadcast pool.start;
    let domains = pool.domains in
    pool.domains <- [];
    Mutex.unlock pool.mutex;
    List.iter Domain.join domains
  end

(* ------------------------------------------------------------------ *)
(* Level-parallel labeling                                             *)
(* ------------------------------------------------------------------ *)

(* Work-stealing granularity. A worker claims [chunk] consecutive
   positions per trip through the atomic cursor; chunks shrink as the
   level narrows but never below [chunk_min], because a 1-node chunk
   makes every claim a contended fetch_and_add for a few microseconds
   of matching — on a level of width ~jobs the cursor traffic used to
   exceed the useful work (the old policy was [max 1 (len / (jobs *
   8))], which degenerates to 1 for any level under 8 * jobs nodes). *)
let chunk_min = 8

(* Below this many nodes a level is labeled on the calling domain:
   there is less than one minimum-size chunk per worker, so the
   barrier plus cursor traffic costs more than the matching it would
   parallelize. Scheduling only changes who computes a label, never
   its value, so the threshold is free to move without perturbing
   bit-identity. *)
let fanout_threshold jobs = jobs * chunk_min

let chunk_for ~jobs len = max chunk_min (len / (jobs * 8))

(* Claim dense [chunk]-sized slices of positions below [hi] through
   [cursor] (pre-set to the first position) and apply [f] to each
   claimed position. Shared by the boxed and arena labelers — the
   scheduling protocol is identical, only the node lookup differs. *)
let steal_chunks ~cursor ~chunks_claimed ~chunk ~hi f =
  let rec loop () =
    let start = Atomic.fetch_and_add cursor chunk in
    if start < hi then begin
      ignore (Atomic.fetch_and_add chunks_claimed 1);
      let stop = min hi (start + chunk) - 1 in
      for i = start to stop do
        f i
      done;
      loop ()
    end
  in
  loop ()

let label ?jobs ?(cache = true) ?(pi_arrival = fun _ -> 0.0) mode db g =
  let jobs =
    match jobs with
    | None -> recommended_jobs ()
    | Some j -> max 1 j
  in
  let cls = Mapper.mode_class mode in
  let n = Subject.num_nodes g in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let by_level = Subject.by_level g in
  let labels = Array.make n 0.0 in
  let best : Matcher.mtch option array = Array.make n None in
  let caches =
    Array.init jobs (fun _ ->
        if cache then Some (Matchdb.create_cache db) else None)
  in
  (* Per-worker counters; the total is deterministic (a sum over
     nodes of a per-node count) even though the split is not. *)
  let tried = Array.make jobs 0 in
  let super_tried = Array.make jobs 0 in
  let patterns_tried = Array.make jobs 0 in
  let level_seconds = Array.make (Array.length by_level) 0.0 in
  (* Queue/steal statistics: levels wide enough to fan out, and the
     number of work chunks handed through the atomic cursor (a proxy
     for stealing granularity). Both are deterministic per run shape;
     only the chunk *assignment* to workers varies. *)
  let parallel_levels = ref 0 in
  let chunks_claimed = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let process worker node =
    match Subject.kind g node with
    | Spi -> labels.(node) <- pi_arrival node
    | Snand _ | Sinv _ ->
      let t, st, pt =
        Mapper.label_node ?cache:caches.(worker) cls db g ~fanouts ~levels
          ~labels ~best node
      in
      tried.(worker) <- tried.(worker) + t;
      super_tried.(worker) <- super_tried.(worker) + st;
      patterns_tried.(worker) <- patterns_tried.(worker) + pt
  in
  let pool = if jobs > 1 then Some (make_pool (jobs - 1)) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter shutdown_pool pool)
    (fun () ->
      let run_level li nodes =
        let t0 = Clock.now () in
        let len = Array.length nodes in
        (match pool with
         | Some pool when len >= fanout_threshold jobs ->
           incr parallel_levels;
           (* Work-stealing over fixed-size chunks: an atomic cursor
              hands out index ranges, so a worker stuck on an
              expensive node (a deep cone in a rich library) does
              not stall the rest of the level. *)
           let cursor = Atomic.make 0 in
           let chunk = chunk_for ~jobs len in
           run_pool pool (fun w ->
               try
                 steal_chunks ~cursor ~chunks_claimed ~chunk ~hi:len
                   (fun i -> process w nodes.(i))
               with e ->
                 ignore (Atomic.compare_and_set failure None (Some e)));
           (match Atomic.get failure with
            | Some e -> raise e
            | None -> ())
         | _ ->
           (* The calling domain reuses the last worker slot's cache
              so small levels still feed the same cache as large
              ones. *)
           Array.iter (process (jobs - 1)) nodes);
        let dt = Clock.now () -. t0 in
        level_seconds.(li) <- dt;
        Metrics.Histogram.observe (Metrics.histogram "parmap.level_seconds") dt
      in
      Array.iteri
        (fun li nodes ->
          if Span.is_enabled () then
            Span.with_span ~cat:"parmap"
              (Printf.sprintf "level %d (%d nodes)" li (Array.length nodes))
              (fun () -> run_level li nodes)
          else run_level li nodes)
        by_level);
  let tried = Array.fold_left ( + ) 0 tried in
  let super_tried = Array.fold_left ( + ) 0 super_tried in
  let patterns_tried = Array.fold_left ( + ) 0 patterns_tried in
  let hits, misses, lookups =
    Array.fold_left
      (fun (h, m, l) c ->
        match c with
        | None -> (h, m, l)
        | Some c ->
          ( h + Matchdb.cache_hits c,
            m + Matchdb.cache_misses c,
            l + Matchdb.cache_lookups c ))
      (0, 0, 0) caches
  in
  let widest_level =
    Array.fold_left (fun acc ns -> max acc (Array.length ns)) 0 by_level
  in
  Metrics.Counter.add (Metrics.counter "parmap.chunks") (Atomic.get chunks_claimed);
  Metrics.Counter.add (Metrics.counter "parmap.parallel_levels") !parallel_levels;
  let stats =
    { domains = jobs;
      levels = Array.length by_level;
      widest_level;
      level_seconds;
      parallel_levels = !parallel_levels;
      chunks = Atomic.get chunks_claimed }
  in
  (labels, best, (tried, super_tried, patterns_tried, hits, misses, lookups),
   stats)

let map ?jobs ?cache mode db g =
  let t0 = Clock.now () in
  let labels, best, (tried, super_tried, patterns_tried, hits, misses, lookups),
      par =
    Span.with_span ~cat:"parmap" "label" (fun () -> label ?jobs ?cache mode db g)
  in
  let t1 = Clock.now () in
  let netlist =
    Span.with_span ~cat:"parmap" "cover" (fun () -> Mapper.cover g best)
  in
  let t2 = Clock.now () in
  ( { Mapper.netlist;
      labels;
      best;
      run =
        { Mapper.label_seconds = t1 -. t0;
          cover_seconds = t2 -. t1;
          matches_tried = tried;
          super_matches_tried = super_tried;
          patterns_tried;
          cache_hits = hits;
          cache_misses = misses;
          cache_lookups = lookups;
          super_gates_used = Mapper.super_gates_in netlist } },
    par )

(* ------------------------------------------------------------------ *)
(* Arena-native level-parallel labeling                                 *)
(* ------------------------------------------------------------------ *)

(* The same level-synchronous sweep as [label], but running directly
   on the flat arena: the parallel fronts are the dense index ranges
   of the counting-sorted [Arena.level_ranges] order array, so
   claiming work is bumping an int cursor across a contiguous slice —
   no per-level boxed node lists to build, no allocation on the
   claim path — and arrival labels land in the same off-heap float
   vector [Arena_map] uses. The determinism argument is unchanged:
   each node is written by exactly one worker, the level barrier makes
   lower levels visible before anyone reads them, and
   [Arena_map.label_node] is a pure function of lower-level labels, so
   the result is bit-identical to the sequential [Arena_map.label]
   (and hence, via the arena differential suite, to the boxed
   [Mapper]) no matter how the stealing interleaves. *)
let label_arena ?jobs ?(cache = true) ?(pi_arrival = fun _ -> 0.0) mode db a =
  let jobs =
    match jobs with
    | None -> recommended_jobs ()
    | Some j -> max 1 j
  in
  let cls = Mapper.mode_class mode in
  let n = Arena.num_nodes a in
  let fanouts = Arena.fanout_counts a in
  let levels = Arena.levels a in
  let order, starts = Arena.level_ranges a in
  let num_levels = Array.length starts - 1 in
  let labels = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let best : Matcher.mtch option array = Array.make n None in
  let caches =
    Array.init jobs (fun _ ->
        if cache then Some (Arena_map.create_cache ()) else None)
  in
  let tried = Array.make jobs 0 in
  let super_tried = Array.make jobs 0 in
  let patterns_tried = Array.make jobs 0 in
  let level_seconds = Array.make num_levels 0.0 in
  let parallel_levels = ref 0 in
  let chunks_claimed = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let fanin0 = a.Arena.fanin0 in
  let process worker node =
    if Bigarray.Array1.unsafe_get fanin0 node < 0 then
      Bigarray.Array1.unsafe_set labels node (pi_arrival node)
    else begin
      let t, st, pt =
        Arena_map.label_node ?cache:caches.(worker) cls db a ~fanouts ~levels
          ~labels ~best node
      in
      tried.(worker) <- tried.(worker) + t;
      super_tried.(worker) <- super_tried.(worker) + st;
      patterns_tried.(worker) <- patterns_tried.(worker) + pt
    end
  in
  let pool = if jobs > 1 then Some (make_pool (jobs - 1)) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter shutdown_pool pool)
    (fun () ->
      let run_level li =
        let t0 = Clock.now () in
        let lo = starts.(li) and hi = starts.(li + 1) in
        let len = hi - lo in
        (match pool with
         | Some pool when len >= fanout_threshold jobs ->
           incr parallel_levels;
           let cursor = Atomic.make lo in
           let chunk = chunk_for ~jobs len in
           run_pool pool (fun w ->
               try
                 steal_chunks ~cursor ~chunks_claimed ~chunk ~hi (fun i ->
                     process w order.(i))
               with e ->
                 ignore (Atomic.compare_and_set failure None (Some e)));
           (match Atomic.get failure with
            | Some e -> raise e
            | None -> ())
         | _ ->
           (* The calling domain reuses the last worker slot's cache
              so small levels still feed the same cache as large
              ones. *)
           for i = lo to hi - 1 do
             process (jobs - 1) order.(i)
           done);
        let dt = Clock.now () -. t0 in
        level_seconds.(li) <- dt;
        Metrics.Histogram.observe (Metrics.histogram "parmap.level_seconds") dt
      in
      for li = 0 to num_levels - 1 do
        if Span.is_enabled () then
          Span.with_span ~cat:"parmap"
            (Printf.sprintf "level %d (%d nodes)" li
               (starts.(li + 1) - starts.(li)))
            (fun () -> run_level li)
        else run_level li
      done);
  let tried = Array.fold_left ( + ) 0 tried in
  let super_tried = Array.fold_left ( + ) 0 super_tried in
  let patterns_tried = Array.fold_left ( + ) 0 patterns_tried in
  let hits, misses, lookups =
    Array.fold_left
      (fun (h, m, l) c ->
        match c with
        | None -> (h, m, l)
        | Some c ->
          ( h + Arena_map.cache_hits c,
            m + Arena_map.cache_misses c,
            l + Arena_map.cache_lookups c ))
      (0, 0, 0) caches
  in
  let widest_level = ref 0 in
  for l = 0 to num_levels - 1 do
    widest_level := max !widest_level (starts.(l + 1) - starts.(l))
  done;
  Metrics.Counter.add (Metrics.counter "parmap.chunks") (Atomic.get chunks_claimed);
  Metrics.Counter.add (Metrics.counter "parmap.parallel_levels") !parallel_levels;
  let stats =
    { domains = jobs;
      levels = num_levels;
      widest_level = !widest_level;
      level_seconds;
      parallel_levels = !parallel_levels;
      chunks = Atomic.get chunks_claimed }
  in
  (labels, best, (tried, super_tried, patterns_tried, hits, misses, lookups),
   stats)

let map_arena ?jobs ?cache ?subject mode db a =
  let subject =
    match subject with Some s -> s | None -> Arena.to_subject a
  in
  let t0 = Clock.now () in
  let labels, best, (tried, super_tried, patterns_tried, hits, misses, lookups),
      par =
    Span.with_span ~cat:"parmap" "label" (fun () ->
        label_arena ?jobs ?cache mode db a)
  in
  let t1 = Clock.now () in
  let netlist =
    Span.with_span ~cat:"parmap" "cover" (fun () ->
        Arena_map.cover a ~subject best)
  in
  let t2 = Clock.now () in
  let labels_arr =
    Array.init (Bigarray.Array1.dim labels) (Bigarray.Array1.unsafe_get labels)
  in
  ( { Mapper.netlist;
      labels = labels_arr;
      best;
      run =
        { Mapper.label_seconds = t1 -. t0;
          cover_seconds = t2 -. t1;
          matches_tried = tried;
          super_matches_tried = super_tried;
          patterns_tried;
          cache_hits = hits;
          cache_misses = misses;
          cache_lookups = lookups;
          super_gates_used = Mapper.super_gates_in netlist } },
    par )
