(* Parallel labeling: results equal to the reference DP for every
   domain count, equivalence of the mapped netlist, stats sanity,
   chunking policy, exception propagation out of the worker pool, and
   the pool's service mode. *)

open Dagmap_obs
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_sim
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let jobs_list = [ 1; 2; 4 ]

(* Every domain count reproduces the reference DP's labels and best
   gates, and does the same matcher work. *)
let test_fixed_circuits () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          let name = Printf.sprintf "%s/%s" cname lib.Libraries.lib_name in
          Oracle.check_modes ~jobs:jobs_list ~name lib g;
          let db = Matchdb.prepare lib in
          let seq = Mapper.map Mapper.Dag db g in
          List.iter
            (fun jobs ->
              let par = Mapper.map ~jobs Mapper.Dag db g in
              check tint (Printf.sprintf "%s jobs=%d matches tried" name jobs)
                seq.Mapper.run.Mapper.matches_tried
                par.Mapper.run.Mapper.matches_tried;
              check tint (Printf.sprintf "%s jobs=%d domains" name jobs) jobs
                par.Mapper.par.Parmap.domains)
            jobs_list)
        [ Libraries.minimal (); Libraries.lib44_1_like (); Libraries.lib2_like () ])
    [ ("adder16", Generators.ripple_adder 16);
      ("ks16", Generators.kogge_stone_adder 16);
      ("cla16", Generators.carry_lookahead_adder 16);
      ("mult4", Generators.array_multiplier 4) ]

(* QCheck: on random circuits, every domain count reproduces the
   reference labels, and the mapped netlist simulates identically to
   the subject graph. *)
let qc_parallel_identical =
  QCheck.Test.make ~count:15 ~name:"parallel = sequential on random circuits"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net =
        Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:70 ()
      in
      let g = Subject.of_network net in
      let n_inputs = List.length (Subject.pi_ids g) in
      let lib = Libraries.lib2_like () in
      let db = Matchdb.prepare lib in
      Oracle.check_modes ~jobs:jobs_list ~name:(string_of_int seed) lib g;
      List.for_all
        (fun mode ->
          List.for_all
            (fun jobs ->
              let par = Mapper.map ~jobs mode db g in
              Equiv.is_equivalent
                (Equiv.compare_sims ~rounds:4 ~n_inputs
                   (Simulate.subject g)
                   (Simulate.netlist par.Mapper.netlist)))
            jobs_list)
        Oracle.modes)

let test_par_stats () =
  let g = Subject.of_network (Generators.array_multiplier 6) in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let stats = (Mapper.map ~jobs:2 Mapper.Dag db g).Mapper.par in
  let levels = Subject.levels g in
  let depth = Array.fold_left max 0 levels in
  check tint "levels = depth + 1" (depth + 1) stats.Parmap.levels;
  check tint "one timing per level" stats.Parmap.levels
    (Array.length stats.Parmap.level_seconds);
  check tbool "timings nonnegative" true
    (Array.for_all (fun s -> s >= 0.0) stats.Parmap.level_seconds);
  let by_level = Subject.by_level g in
  let widest = Array.fold_left (fun w l -> max w (Array.length l)) 0 by_level in
  check tint "widest level" widest stats.Parmap.widest_level;
  check tbool "recommended_jobs >= 1" true (Parmap.recommended_jobs () >= 1)

(* Phase timers come from the shared monotonic clock. The stats must
   be non-negative and the recorded phases must account for the wall
   time of the whole call — under 4 domains too, where process-CPU
   timers would overstate phases by up to 4x. *)
let test_stats_monotonic_timers () =
  let g = Subject.of_network (Generators.array_multiplier 6) in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let check_run name total (s : Mapper.stats) =
    check tbool (name ^ ": label >= 0") true (s.Mapper.label_seconds >= 0.0);
    check tbool (name ^ ": cover >= 0") true (s.Mapper.cover_seconds >= 0.0);
    let phases = s.Mapper.label_seconds +. s.Mapper.cover_seconds in
    check tbool (name ^ ": phases within total") true (phases <= total +. 1e-3);
    (* Everything outside label+cover is bookkeeping; give pool spawn
       generous room without letting a CPU-clock regression (which
       would multiply phase time by the domain count) slip through. *)
    check tbool (name ^ ": phases account for total") true
      (total -. phases <= 0.5)
  in
  let seq, t_seq = Clock.time (fun () -> Mapper.map Mapper.Dag db g) in
  check_run "seq" t_seq seq.Mapper.run;
  let par, t_par = Clock.time (fun () -> Mapper.map ~jobs:4 Mapper.Dag db g) in
  let pstats = par.Mapper.par in
  check_run "jobs=4" t_par par.Mapper.run;
  check tbool "level sum within label time" true
    (Array.fold_left ( +. ) 0.0 pstats.Parmap.level_seconds
    <= par.Mapper.run.Mapper.label_seconds +. 1e-3);
  check tbool "parallel_levels <= levels" true
    (pstats.Parmap.parallel_levels >= 0
    && pstats.Parmap.parallel_levels <= pstats.Parmap.levels);
  check tbool "chunks cover parallel levels" true
    (pstats.Parmap.chunks >= pstats.Parmap.parallel_levels)

(* ------------------------------------------------------------------ *)
(* Work-stealing granularity (chunk_min regression)                    *)
(* ------------------------------------------------------------------ *)

(* The old chunk policy [max 1 (len / (jobs * 8))] degenerated to
   1-node chunks on any level under 8 * jobs nodes: every worker
   hammered the atomic cursor once per node. Levels too narrow to
   give each worker a [chunk_min]-sized slice must now run on the
   calling domain with no cursor traffic at all, and chunks on
   genuinely wide levels never shrink below [chunk_min]. Scheduling
   never changes labels, which each case re-asserts. *)

let test_chunking_small_levels () =
  (* 20 NANDs over 10 shared PIs: a 10-wide PI level and a 20-wide
     NAND level — the NAND level is over the old 4 * jobs = 16
     fan-out threshold for jobs = 4, but under one minimum-size chunk
     per worker. Every level must stay sequential. *)
  let bld = Subject.Builder.create () in
  let pis =
    Array.init 10 (fun i -> Subject.Builder.pi bld (Printf.sprintf "a%d" i))
  in
  for i = 0 to 19 do
    let a = pis.(i mod 10) and b = pis.((i * 3 + 1) mod 10) in
    Subject.Builder.output bld
      (Printf.sprintf "o%d" i)
      (Subject.Builder.raw_nand bld a b)
  done;
  let g = Subject.Builder.finish bld in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let par = Mapper.map ~jobs:4 Mapper.Dag db g in
  let stats = par.Mapper.par in
  check tbool "small-level labels identical" true
    (seq.Mapper.labels = par.Mapper.labels);
  check tbool "width 20 < jobs * chunk_min" true (20 < 4 * Parmap.chunk_min);
  check tint "small level stays sequential" 0 stats.Parmap.parallel_levels;
  check tint "no cursor traffic on small levels" 0 stats.Parmap.chunks

let test_chunking_deep_chain () =
  (* A deep chain is nothing but narrow levels; the cursor must never
     be touched, so chunks stay at 0 — far below the node count the
     old policy could reach. *)
  let g = Subject.of_network (Generators.nand_chain 5000) in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let par = Mapper.map ~jobs:4 Mapper.Dag db g in
  let stats = par.Mapper.par in
  check tbool "chain labels identical" true
    (seq.Mapper.labels = par.Mapper.labels);
  check tint "deep chain: no parallel levels" 0 stats.Parmap.parallel_levels;
  check tint "deep chain: no chunks" 0 stats.Parmap.chunks;
  check tbool "chunks below node count" true
    (stats.Parmap.chunks <= Subject.num_nodes g)

let test_chunking_wide_levels () =
  (* Wide fronts still fan out, but each cursor claim hands out at
     least chunk_min nodes: total claims are bounded by
     nodes / chunk_min plus one tail chunk per parallel level. *)
  let g = Subject.of_network (Generators.array_multiplier 8) in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let par = Mapper.map ~jobs:2 Mapper.Dag db g in
  let stats = par.Mapper.par in
  check tbool "wide labels identical" true
    (seq.Mapper.labels = par.Mapper.labels);
  check tbool "wide levels do fan out" true (stats.Parmap.parallel_levels > 0);
  check tbool "chunks bounded by nodes / chunk_min" true
    (stats.Parmap.chunks
    <= (Subject.num_nodes g / Parmap.chunk_min) + stats.Parmap.parallel_levels)

(* pi_arrival flows through the parallel labeler unchanged. *)
let test_pi_arrival () =
  let g = Subject.of_network (Generators.carry_lookahead_adder 8) in
  let lib = Libraries.lib44_1_like () in
  let pi_arrival pi = float_of_int (pi mod 5) *. 0.7 in
  Oracle.check ~pi_arrival ~jobs:jobs_list ~name:"cla8" Mapper.Dag
    (Matchdb.prepare lib) g

(* An Unmappable raised inside a worker domain must surface on the
   calling domain. The level is made wide enough (16 NANDs) that a
   2-domain run really fans it out rather than staying sequential. *)
let test_unmappable_propagates () =
  let inv_only =
    Libraries.make "invonly"
      (Genlib_parser.parse_string
         "GATE inv 1 O=!a; PIN a INV 1 999 1.0 0.1 1.0 0.1")
  in
  let bld = Subject.Builder.create () in
  for i = 0 to 15 do
    let a = Subject.Builder.pi bld (Printf.sprintf "a%d" i) in
    let b = Subject.Builder.pi bld (Printf.sprintf "b%d" i) in
    let n = Subject.Builder.raw_nand bld a b in
    Subject.Builder.output bld (Printf.sprintf "o%d" i) n
  done;
  let g = Subject.Builder.finish bld in
  let db = Matchdb.prepare inv_only in
  List.iter
    (fun jobs ->
      check tbool
        (Printf.sprintf "unmappable raises, jobs=%d" jobs)
        true
        (match Mapper.label ~jobs Mapper.Dag db (Arena.of_subject g) with
         | _ -> false
         | exception Mapper.Unmappable _ -> true))
    [ 1; 2; 4 ]

(* Service mode and pool lifecycle: spinning a pool up and down many
   times must not leak domains (a leak hits the ~128-domain runtime
   limit well before 100 iterations), drain must be quiescence not
   shutdown, and shutdown must be idempotent. *)
let test_pool_lifecycle () =
  for round = 1 to 100 do
    let pool = Parmap.make_pool 3 in
    check tint
      (Printf.sprintf "round %d pool size" round)
      3 (Parmap.pool_size pool);
    let hits = Atomic.make 0 in
    for _ = 1 to 8 do
      check tbool "submit accepted" true
        (Parmap.submit pool (fun () -> Atomic.incr hits))
    done;
    Parmap.drain pool;
    check tint (Printf.sprintf "round %d jobs ran" round) 8 (Atomic.get hits);
    (* The pool is reusable after drain — barrier mode still works. *)
    let barrier_hits = Atomic.make 0 in
    Parmap.run_pool pool (fun _ -> Atomic.incr barrier_hits);
    check tint (Printf.sprintf "round %d barrier" round) 4
      (Atomic.get barrier_hits);
    Parmap.shutdown_pool pool;
    (* Idempotent: a second (and third) shutdown is a no-op, not a
       double Domain.join. *)
    Parmap.shutdown_pool pool;
    Parmap.shutdown_pool pool;
    check tbool
      (Printf.sprintf "round %d submit after shutdown" round)
      false
      (Parmap.submit pool (fun () -> ()))
  done

(* Exceptions escaping a submitted job are swallowed at the job
   boundary: the worker survives and keeps serving. *)
let test_pool_job_isolation () =
  let pool = Parmap.make_pool 2 in
  let ok = Atomic.make 0 in
  for _ = 1 to 20 do
    ignore (Parmap.submit pool (fun () -> failwith "job bug"))
  done;
  for _ = 1 to 20 do
    ignore (Parmap.submit pool (fun () -> Atomic.incr ok))
  done;
  Parmap.drain pool;
  check tint "jobs after failing jobs still run" 20 (Atomic.get ok);
  Parmap.shutdown_pool pool

(* A raising barrier task ends only its own share: every other task
   still runs, the first exception reaches the caller after the
   barrier, and the pool keeps working. *)
let test_pool_barrier_exception () =
  let pool = Parmap.make_pool 3 in
  let ran = Atomic.make 0 in
  (match
     Parmap.run_pool pool (fun w ->
         Atomic.incr ran;
         if w = 1 then failwith "task bug")
   with
   | () -> Alcotest.fail "the task's exception was swallowed"
   | exception Failure m ->
     check Alcotest.string "first exception" "task bug" m);
  check tint "every task ran" 4 (Atomic.get ran);
  let again = Atomic.make 0 in
  Parmap.run_pool pool (fun _ -> Atomic.incr again);
  check tint "pool reusable" 4 (Atomic.get again);
  Parmap.shutdown_pool pool

(* The sweep visits every node exactly once, lower levels first, for
   any job count. *)
let test_sweep_visits () =
  let g =
    Subject.of_network
      (Generators.random_dag ~seed:3 ~inputs:64 ~outputs:16 ~nodes:2000 ())
  in
  let a = Arena.of_subject g in
  let levels = Arena.levels a in
  List.iter
    (fun jobs ->
      let visits = Array.make (Arena.num_nodes a) 0 in
      let ok = Atomic.make true in
      let stats =
        Parmap.sweep ~jobs a (fun w node ->
            if w < 0 || w >= jobs then Atomic.set ok false;
            (* Every fanin sits at a lower level, so it was visited
               before this level started. *)
            List.iter
              (fun x -> if x >= 0 && visits.(x) <> 1 then Atomic.set ok false)
              [ Arena.fanin0 a node; Arena.fanin1 a node ];
            visits.(node) <- visits.(node) + 1)
      in
      check tbool (Printf.sprintf "jobs %d: workers and order" jobs) true
        (Atomic.get ok);
      check tbool (Printf.sprintf "jobs %d: each node once" jobs) true
        (Array.for_all (fun v -> v = 1) visits);
      check tint (Printf.sprintf "jobs %d: levels" jobs)
        (Array.fold_left max 0 levels + 1)
        stats.Parmap.levels)
    [ 1; 2; 4 ]

(* Drain with nothing submitted must not block, including on a
   size-0 pool (submit refuses, drain is vacuous). *)
let test_pool_empty_drain () =
  let pool = Parmap.make_pool 1 in
  Parmap.drain pool;
  Parmap.drain pool;
  Parmap.shutdown_pool pool;
  let zero = Parmap.make_pool 0 in
  check tbool "size-0 pool refuses jobs" false
    (Parmap.submit zero (fun () -> ()));
  Parmap.drain zero;
  Parmap.shutdown_pool zero

let () =
  Alcotest.run "parmap"
    [ ( "identical",
        [ Alcotest.test_case "fixed circuits, jobs 1/2/4" `Quick
            test_fixed_circuits;
          QCheck_alcotest.to_alcotest qc_parallel_identical ] );
      ( "stats",
        [ Alcotest.test_case "par_stats shape" `Quick test_par_stats;
          Alcotest.test_case "monotonic phase timers" `Quick
            test_stats_monotonic_timers;
          Alcotest.test_case "pi_arrival passthrough" `Quick test_pi_arrival ] );
      ( "chunking",
        [ Alcotest.test_case "narrow level stays sequential" `Quick
            test_chunking_small_levels;
          Alcotest.test_case "deep chain: zero chunks" `Quick
            test_chunking_deep_chain;
          Alcotest.test_case "wide levels: chunk_min floor" `Quick
            test_chunking_wide_levels ] );
      ( "errors",
        [ Alcotest.test_case "Unmappable propagates" `Quick
            test_unmappable_propagates ] );
      ( "pool",
        [ Alcotest.test_case "100x init/submit/drain/shutdown" `Quick
            test_pool_lifecycle;
          Alcotest.test_case "failing jobs are isolated" `Quick
            test_pool_job_isolation;
          Alcotest.test_case "failing barrier task re-raised" `Quick
            test_pool_barrier_exception;
          Alcotest.test_case "sweep visits each node once" `Quick
            test_sweep_visits;
          Alcotest.test_case "empty and size-0 drains" `Quick
            test_pool_empty_drain ] ) ]
