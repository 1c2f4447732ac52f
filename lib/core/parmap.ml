open Dagmap_obs
open Dagmap_subject

(* The domain pool and the one level sweep. The labeling DP in Mapper
   and the priority-cut engine both run [sweep]; supergate enumeration
   uses the pool's barrier directly and the daemon its service mode. A
   node's label depends only on nodes at strictly smaller levels, so a
   level is a front of independent work; the sweep fans each wide
   level across the pool with work-stealing chunks and waits at a
   barrier before the next. Determinism comes from the dependency
   structure, not the schedule. *)

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
   caller doubles as the last worker. *)
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
   (w = size); returns when all have finished. A raising task must not
   take its worker domain down or leave the barrier waiting, so each
   task runs under a trap; the first exception is re-raised here once
   every task has returned. *)
let run_pool pool task =
  let failure = Atomic.make None in
  let task w =
    try task w with e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
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
  Mutex.unlock pool.mutex;
  Option.iter raise (Atomic.get failure)

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
(* The level sweep                                                     *)
(* ------------------------------------------------------------------ *)

(* Work-stealing granularity. A worker claims [chunk] consecutive
   positions per trip through the atomic cursor; chunks shrink as the
   level narrows but never below [chunk_min], because a 1-node chunk
   makes every claim a contended fetch_and_add for a few microseconds
   of matching — on a level of width ~jobs the cursor traffic used to
   exceed the useful work (the old policy was [max 1 (len / (jobs *
   8))], which degenerates to 1 for any level under 8 * jobs nodes). *)
let chunk_min = 8

(* A level under [jobs * chunk_min] nodes runs on the calling domain:
   there is less than one minimum-size chunk per worker, so the
   barrier plus cursor traffic costs more than the work it would
   parallelize. Scheduling only changes who visits a node, never what
   the visit computes, so the threshold is free to move without
   perturbing bit-identity. *)
let sweep ?(jobs = 1) a f =
  let jobs = max 1 jobs in
  let order, starts = Subject.level_ranges a in
  let num_levels = Array.length starts - 1 in
  let level_seconds = Array.make num_levels 0.0 in
  let level_hist = Metrics.histogram "parmap.level_seconds" in
  let parallel_levels = ref 0 in
  let chunks_claimed = Atomic.make 0 in
  let run_level pool lo hi =
    match pool with
    | Some pool when hi - lo >= jobs * chunk_min ->
      incr parallel_levels;
      (* Workers claim dense [chunk]-sized slices of the level through
         one atomic cursor. *)
      let cursor = Atomic.make lo in
      let chunk = max chunk_min ((hi - lo) / (jobs * 8)) in
      run_pool pool (fun w ->
          let rec claim () =
            let start = Atomic.fetch_and_add cursor chunk in
            if start < hi then begin
              Atomic.incr chunks_claimed;
              for i = start to min hi (start + chunk) - 1 do
                f w order.(i)
              done;
              claim ()
            end
          in
          claim ())
    | _ ->
      for i = lo to hi - 1 do
        f (jobs - 1) order.(i)
      done
  in
  let pool = if jobs > 1 then Some (make_pool (jobs - 1)) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter shutdown_pool pool)
    (fun () ->
      for li = 0 to num_levels - 1 do
        let lo = starts.(li) and hi = starts.(li + 1) in
        let t0 = Clock.now () in
        if Span.is_enabled () then
          Span.with_span ~cat:"parmap"
            (Printf.sprintf "level %d (%d nodes)" li (hi - lo))
            (fun () -> run_level pool lo hi)
        else run_level pool lo hi;
        let dt = Clock.now () -. t0 in
        level_seconds.(li) <- dt;
        Metrics.Histogram.observe level_hist dt
      done);
  let widest_level = ref 0 in
  for li = 0 to num_levels - 1 do
    widest_level := max !widest_level (starts.(li + 1) - starts.(li))
  done;
  let chunks = Atomic.get chunks_claimed in
  Metrics.Counter.add (Metrics.counter "parmap.chunks") chunks;
  Metrics.Counter.add
    (Metrics.counter "parmap.parallel_levels")
    !parallel_levels;
  { domains = jobs;
    levels = num_levels;
    widest_level = !widest_level;
    level_seconds;
    parallel_levels = !parallel_levels;
    chunks }
