(* techmapd under fire: fault-plan parsing, end-to-end deadlines
   (admission, queue wait), the watchdog (stuck job failed, pool
   restarted, degraded inline service, recovery), the retry layer
   against injected connection drops, slow-trickle framing, client
   timeouts against a mute server, idle-connection reaping, and a
   300-request chaos mix whose every completed reply must agree with
   a fault-free local map. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_obs
open Dagmap_serve

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fault-plan parsing                                                  *)
(* ------------------------------------------------------------------ *)

let test_plan_parsing () =
  check tbool "empty spec is inert" false
    (Faultplan.is_active (Result.get_ok (Faultplan.parse "")));
  check tbool "none is inert" false (Faultplan.is_active Faultplan.none);
  let plan =
    Result.get_ok
      (Faultplan.parse "crash_job:0.25,delay_job:150:0.1,seed:42")
  in
  check tbool "plan with entries is active" true (Faultplan.is_active plan);
  check tstr "canonical rendering"
    "crash_job:0.25,delay_job:150:0.1,seed:42"
    (Faultplan.to_string plan);
  check tbool "rendering round-trips" true
    (match Faultplan.parse (Faultplan.to_string plan) with
     | Ok p -> Faultplan.to_string p = Faultplan.to_string plan
     | Error _ -> false);
  check tint "injected counts start at zero" 0
    (List.fold_left ( + ) 0 (List.map snd (Faultplan.injected plan)));
  let bad spec =
    match Faultplan.parse spec with Ok _ -> false | Error _ -> true
  in
  check tbool "probability out of range" true (bad "crash_job:1.5");
  check tbool "negative probability" true (bad "drop_conn:-0.1");
  check tbool "zero duration" true (bad "delay_job:0:0.5");
  check tbool "unknown entry" true (bad "explode:0.5");
  check tbool "malformed entry" true (bad "crash_job");
  check tbool "bad seed" true (bad "seed:x");
  (* A plan with probabilities but all zero draws still counts as
     active (the entries exist); decisions just never fire. *)
  let never = Result.get_ok (Faultplan.parse "crash_job:0,seed:1") in
  check tbool "p=0 plan parses" true (Faultplan.is_active never);
  for _ = 1 to 100 do
    check tbool "p=0 never fires" false (Faultplan.crash_job never)
  done;
  (* p=1 always fires and counts. *)
  let always = Result.get_ok (Faultplan.parse "drop_conn:1,seed:1") in
  for _ = 1 to 5 do
    check tbool "p=1 always fires" true (Faultplan.drop_conn always)
  done;
  check tbool "injections counted" true
    (List.assoc "drop_conn" (Faultplan.injected always) = 5)

(* ------------------------------------------------------------------ *)
(* Live-server harness                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "techmapd_faults_%d_%d.sock" (Unix.getpid ()) !n)

(* slow:MS burns wall time inside the job (on a worker domain) before
   yielding a small circuit — a deterministic stand-in for a wedged
   request, no randomness involved. *)
let resolver spec =
  match String.split_on_char ':' spec with
  | [ "chain"; n ] -> Generators.nand_chain (int_of_string n)
  | [ "slow"; ms ] ->
    Unix.sleepf (float_of_string ms /. 1e3);
    Generators.nand_chain 8
  | _ -> failwith ("no such circuit " ^ spec)

let with_server ?(jobs = 2) ?(queue = 8) ?(io_timeout = 0.0)
    ?(idle_timeout = 0.0) ?(job_budget = 0.0) ?(faults = Faultplan.none) f =
  let sock = fresh_sock () in
  let srv =
    Server.create
      { Server.socket_path = sock;
        jobs;
        queue_max = queue;
        libraries = [ ("lib2", Option.get (Libraries.by_name "lib2")) ];
        resolve_circuit = Some resolver;
        verbose = false;
        io_timeout_s = io_timeout;
        idle_timeout_s = idle_timeout;
        job_budget_s = job_budget;
        faults }
  in
  let th = Thread.create Server.run srv in
  let finally () =
    Server.stop srv;
    Thread.join th
  in
  Fun.protect ~finally (fun () -> f sock srv)

let status reply =
  Option.value ~default:"?"
    (Option.bind (Json.member "status" reply) Json.to_string_value)

let code reply =
  Option.bind (Json.member "code" reply) Json.to_string_value

let num_field name reply =
  match Option.bind (Json.member name reply) Json.to_number with
  | Some x -> x
  | None -> Alcotest.fail (Printf.sprintf "reply without %s" name)

let stats_of sock =
  let c = Client.connect ~timeout_s:10.0 sock in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request c (Proto.request Proto.Stats))

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline_queue_wait () =
  with_server ~jobs:1 ~queue:8 @@ fun sock _srv ->
  (* Pin the only worker for 600ms... *)
  let blocker =
    Thread.create
      (fun () ->
        let c = Client.connect sock in
        ignore
          (Client.request c
             { (Proto.request Proto.Map) with Proto.circuit = Some "slow:600" });
        Client.close c)
      ()
  in
  Thread.delay 0.1;
  (* ...then a request with a 100ms budget has to die in the queue,
     and must be answered long before the worker frees up. *)
  let c = Client.connect sock in
  let t0 = Clock.now () in
  let r =
    Client.request c
      { (Proto.request Proto.Map) with
        Proto.circuit = Some "chain:5";
        deadline_ms = Some 100 }
  in
  let dt = Clock.since t0 in
  check tstr "queue-wait miss is an error" "error" (status r);
  check (Alcotest.option tstr) "deadline_exceeded code"
    (Some "deadline_exceeded") (code r);
  check tbool "elapsed_ms reported >= budget" true
    (num_field "elapsed_ms" r >= 100.0);
  check tbool "answered before the worker freed" true (dt < 0.45);
  (* The same connection keeps working afterwards. *)
  let r2 = Client.request c (Proto.request Proto.Ping) in
  check tstr "connection survives a deadline miss" "ok" (status r2);
  Client.close c;
  Thread.join blocker;
  let st = stats_of sock in
  check tbool "server counted the miss" true
    (num_field "deadline_exceeded" st >= 1.0)

let test_deadline_during_payload () =
  with_server ~io_timeout:5.0 @@ fun sock _srv ->
  (* The budget starts when the header lands; a payload still
     dribbling in when it expires is an admission-time miss. *)
  let c = Client.connect sock in
  Client.send_raw c "map deadline_ms=80 payload=64\n";
  Thread.delay 0.3;
  let r = Client.read_reply c in
  check (Alcotest.option tstr) "expired during payload"
    (Some "deadline_exceeded") (code r);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Watchdog: stuck job -> failed request, pool restart, degraded path  *)
(* ------------------------------------------------------------------ *)

let test_watchdog_restart_and_degraded () =
  with_server ~jobs:1 ~queue:8 ~job_budget:0.15 @@ fun sock _srv ->
  (* A job that sleeps 700ms against a 150ms budget: the watchdog
     must fail it rather than let the client wait the sleep out. *)
  let c = Client.connect sock in
  let t0 = Clock.now () in
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "slow:700" }
  in
  let dt = Clock.since t0 in
  check (Alcotest.option tstr) "stuck job failed" (Some "watchdog_timeout")
    (code r);
  check tbool "failed at the budget, not after the sleep" true (dt < 0.6);
  (* While the old pool is being retired (the sleep has ~500ms to
     run), requests are served inline on the degraded path. *)
  let degraded_seen = ref false in
  let deadline = Clock.now () +. 2.0 in
  while (not !degraded_seen) && Clock.now () < deadline do
    let r =
      Client.request c
        { (Proto.request Proto.Map) with Proto.circuit = Some "chain:10" }
    in
    check tstr "degraded-window request still ok" "ok" (status r);
    if Json.member "degraded" r = Some (Json.Bool true) then
      degraded_seen := true
  done;
  check tbool "a degraded reply was observed" true !degraded_seen;
  (* Recovery: the fresh pool comes up and service leaves the
     degraded path. *)
  let healthy = ref false in
  let deadline = Clock.now () +. 3.0 in
  while (not !healthy) && Clock.now () < deadline do
    Thread.delay 0.05;
    let st = Client.request c (Proto.request Proto.Stats) in
    if Json.member "healthy" st = Some (Json.Bool true) then healthy := true
  done;
  check tbool "pool recovered" true !healthy;
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "chain:10" }
  in
  check tstr "post-recovery ok" "ok" (status r);
  check tbool "post-recovery not degraded" true
    (Json.member "degraded" r <> Some (Json.Bool true));
  let st = Client.request c (Proto.request Proto.Stats) in
  check tbool "restart counted" true (num_field "watchdog_restarts" st >= 1.0);
  check tbool "degraded replies counted" true (num_field "degraded" st >= 1.0);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Retry layer vs dropped connections                                  *)
(* ------------------------------------------------------------------ *)

let test_retries_vs_drop_conn () =
  let faults = Faultplan.parse_exn "drop_conn:0.4,seed:3" in
  with_server ~faults @@ fun sock _srv ->
  let retry = { Client.default_retry with Client.attempts = 12 } in
  let s = Client.session ~timeout_s:10.0 ~retry ~seed:9 sock in
  for i = 1 to 40 do
    match
      Client.call s
        { (Proto.request Proto.Map) with
          Proto.circuit = Some "chain:12";
          id = Some (string_of_int i) }
    with
    | Ok r ->
      check tstr "dropped replies are retried to ok" "ok" (status r);
      check (Alcotest.option tstr) "id survives the retries"
        (Some (string_of_int i))
        (Option.bind (Json.member "id" r) Json.to_string_value)
    | Error m -> Alcotest.fail ("gave up despite retries: " ^ m)
  done;
  let c = Client.counters s in
  check tbool "transient retries were actually exercised" true
    (c.Client.retried_transient > 0);
  check tint "no give-ups" 0 c.Client.gave_up;
  Client.end_session s

(* ------------------------------------------------------------------ *)
(* Backoff jitter: per-session PRNG reproducibility                    *)
(* ------------------------------------------------------------------ *)

(* The retry schedule must be a pure function of the session's seed:
   equal seeds give equal schedules, interleaved draws from the
   global [Random] state cannot perturb them (sessions own a private
   [Random.State.t]), and every delay respects the configured
   bounds. This pins the chaos-replay contract — per-seed runs are
   bit-reproducible even with concurrent load-generator threads. *)
let test_backoff_jitter () =
  let retry =
    { Client.default_retry with
      Client.base_delay_s = 0.004;
      max_delay_s = 0.25 }
  in
  let schedule ?(noise = false) seed =
    (* No connection is made until the first call, so sessions against
       a nonexistent socket are fine for drawing the schedule. *)
    let s = Client.session ~retry ~seed "/nonexistent.sock" in
    let prev = ref retry.Client.base_delay_s in
    let ds = ref [] in
    for _ = 1 to 16 do
      if noise then ignore (Random.bits ());
      prev := Client.next_backoff s ~prev:!prev;
      ds := !prev :: !ds
    done;
    Client.end_session s;
    List.rev !ds
  in
  let a = schedule 7 in
  check tbool "equal seeds, equal schedules" true (a = schedule 7);
  check tbool "global Random draws cannot perturb" true
    (a = schedule ~noise:true 7);
  check tbool "different seeds, different schedules" true (a <> schedule 8);
  List.iter
    (fun d ->
      check tbool "delay within [base, max]" true
        (d >= retry.Client.base_delay_s && d <= retry.Client.max_delay_s))
    a;
  (* The decorrelated bound itself: one draw never exceeds
     min(max_delay, 3 * previous) when that bound is above base. *)
  let rng = Random.State.make [| 42 |] in
  let prev = ref retry.Client.base_delay_s in
  for _ = 1 to 100 do
    let d = Client.jitter rng retry ~prev:!prev in
    check tbool "decorrelated upper bound" true
      (d <= Float.min retry.Client.max_delay_s
              (Float.max retry.Client.base_delay_s (3.0 *. !prev))
            +. 1e-12);
    prev := d
  done

(* ------------------------------------------------------------------ *)
(* Framing: 1-byte trickle must reassemble, not read as EOF            *)
(* ------------------------------------------------------------------ *)

let test_one_byte_trickle () =
  with_server ~io_timeout:5.0 @@ fun sock _srv ->
  let net = Generators.random_dag ~seed:21 ~nodes:40 () in
  let payload = Dagmap_blif.Blif.write_network net in
  let header =
    Proto.encode_request
      { (Proto.request Proto.Map) with
        Proto.payload = Some (String.length payload) }
  in
  let c = Client.connect ~timeout_s:30.0 sock in
  let whole = header ^ payload in
  String.iter
    (fun ch ->
      Client.send_raw c (String.make 1 ch);
      (* a handful of micro-delays spread over the frame, not one per
         byte — the test must stay fast but still split every read *)
      if Random.int 50 = 0 then Thread.delay 0.002)
    whole;
  let r = Client.read_reply c in
  check tstr "trickled frame maps fine" "ok" (status r);
  check tbool "reply carries a delay" true (num_field "delay" r > 0.0);
  Client.close c

let test_slowloris_header_times_out () =
  with_server ~io_timeout:0.2 @@ fun sock _srv ->
  let c = Client.connect ~timeout_s:10.0 sock in
  (* A header that starts and then stalls must be cut by the
     progress bound, with a structured reply first. *)
  Client.send_raw c "map circ";
  let r = Client.read_reply c in
  check (Alcotest.option tstr) "io_timeout code" (Some "io_timeout") (code r);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Client timeout against a mute server                                *)
(* ------------------------------------------------------------------ *)

let test_client_timeout () =
  let sock = fresh_sock () in
  let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX sock);
  Unix.listen listen 4;
  (* Accept and then say nothing, ever. *)
  let mute =
    Thread.create
      (fun () ->
        match Unix.accept listen with
        | fd, _ ->
          Thread.delay 2.0;
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
      ()
  in
  let finally () =
    (try Unix.close listen with Unix.Unix_error _ -> ());
    (try Sys.remove sock with Sys_error _ -> ());
    Thread.join mute
  in
  Fun.protect ~finally @@ fun () ->
  let c = Client.connect ~timeout_s:0.3 sock in
  let t0 = Clock.now () in
  (match Client.request c (Proto.request Proto.Ping) with
   | _ -> Alcotest.fail "a mute server produced a reply?"
   | exception Client.Timeout -> ());
  check tbool "timed out promptly" true (Clock.since t0 < 1.5);
  Client.close c

(* ------------------------------------------------------------------ *)
(* Idle-connection reaping                                             *)
(* ------------------------------------------------------------------ *)

let test_idle_reaping () =
  with_server ~idle_timeout:0.2 @@ fun sock _srv ->
  let c = Client.connect ~timeout_s:10.0 sock in
  let r = Client.request c (Proto.request Proto.Ping) in
  check tstr "warm-up ping" "ok" (status r);
  Thread.delay 0.8;
  (* The sweeper shut the descriptor down while we sat idle. *)
  check tbool "idle connection was cut" true
    (match Client.request c (Proto.request Proto.Ping) with
     | _ -> false
     | exception (Failure _ | Unix.Unix_error _ | Client.Timeout) -> true);
  Client.close c;
  let st = stats_of sock in
  check tbool "reap counted" true (num_field "idle_reaped" st >= 1.0);
  (* A busy connection must NOT be reaped: a single request slower
     than the idle timeout completes fine. *)
  let c = Client.connect ~timeout_s:10.0 sock in
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "slow:500" }
  in
  check tstr "slow request outlives the idle timeout" "ok" (status r);
  Client.close c

(* ------------------------------------------------------------------ *)
(* The chaos mix: >= 300 requests under a combined plan                *)
(* ------------------------------------------------------------------ *)

let test_chaos_mix () =
  let faults =
    Faultplan.parse_exn
      "crash_job:0.1,delay_job:300:0.12,drop_conn:0.1,garble_reply:0.1,\
       stall_read:10:0.1,seed:5"
  in
  with_server ~jobs:2 ~queue:16 ~io_timeout:10.0 ~job_budget:0.1 ~faults
  @@ fun sock _srv ->
  (* Fault-free ground truth for every corpus circuit: completed
     replies must agree exactly (delay and area), degraded or not. *)
  let corpus =
    Array.init 6 (fun i ->
        let net =
          Generators.random_dag ~seed:(100 + i) ~inputs:8 ~outputs:6
            ~nodes:(25 + (7 * i)) ()
        in
        Dagmap_blif.Blif.write_network net)
  in
  let expected =
    let db = Matchdb.prepare (Option.get (Libraries.by_name "lib2")) in
    Array.map
      (fun blif ->
        let net = Dagmap_blif.Blif.read_string ~file:"<corpus>" blif in
        let r = Mapper.map Mapper.Dag db (Subject.of_network net) in
        (Netlist.delay r.Mapper.netlist, Netlist.area r.Mapper.netlist))
      corpus
  in
  let close_to a b =
    Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
  in
  let requests = 300 in
  let clients = 4 in
  let next = Atomic.make 0 in
  let ok = Atomic.make 0
  and incorrect = Atomic.make 0
  and unexpected = Atomic.make 0
  and resubmitted = Atomic.make 0 in
  let retry = { Client.default_retry with Client.attempts = 12 } in
  let client_loop k =
    let s = Client.session ~timeout_s:10.0 ~retry ~seed:(40 + k) sock in
    let rec serve_one i resubmits =
      let ci = i mod Array.length corpus in
      match
        Client.call s ~payload:corpus.(ci)
          { (Proto.request Proto.Map) with Proto.id = Some (string_of_int i) }
      with
      | Error _ -> Atomic.incr unexpected
      | Ok reply -> (
        match status reply with
        | "ok" ->
          Atomic.incr ok;
          let d, a = expected.(ci) in
          if
            not
              (close_to d (num_field "delay" reply)
              && close_to a (num_field "area" reply))
          then Atomic.incr incorrect
        | "error"
          when (code reply = Some "injected_fault"
               || code reply = Some "watchdog_timeout")
               && resubmits > 0 ->
          Atomic.incr resubmitted;
          serve_one i (resubmits - 1)
        | _ -> Atomic.incr unexpected)
    in
    let rec pump () =
      let i = Atomic.fetch_and_add next 1 in
      if i < requests then begin
        (try serve_one i 25 with _ -> Atomic.incr unexpected);
        pump ()
      end
    in
    pump ();
    Client.end_session s
  in
  let threads = List.init clients (fun k -> Thread.create client_loop k) in
  List.iter Thread.join threads;
  check tint "every request eventually landed correct" requests
    (Atomic.get ok);
  check tint "zero incorrect replies" 0 (Atomic.get incorrect);
  check tint "zero unexpected failures" 0 (Atomic.get unexpected);
  (* The daemon is still alive and the watchdog actually worked: the
     delay_job:300ms faults blow the 100ms budget, so at least one
     pool restart (and during its window, degraded service) must have
     been seen. The plan is still armed, so the stats request can be
     dropped or garbled like any other: fetch it through a retrying
     session too. *)
  let st =
    let s = Client.session ~timeout_s:10.0 ~retry ~seed:44 sock in
    Fun.protect
      ~finally:(fun () -> Client.end_session s)
      (fun () ->
        match Client.call s (Proto.request Proto.Stats) with
        | Ok st -> st
        | Error e -> Alcotest.fail ("stats after the storm: " ^ e))
  in
  check tbool "daemon alive after the storm" true (status st = "ok");
  check tbool ">=1 watchdog restart" true
    (num_field "watchdog_restarts" st >= 1.0);
  check tbool ">=1 degraded reply" true (num_field "degraded" st >= 1.0)

let () =
  Alcotest.run "serve_faults"
    [ ( "faultplan",
        [ Alcotest.test_case "parse/render/decide" `Quick test_plan_parsing ] );
      ( "deadlines",
        [ Alcotest.test_case "queue-wait miss" `Quick test_deadline_queue_wait;
          Alcotest.test_case "mid-payload miss" `Quick
            test_deadline_during_payload ] );
      ( "watchdog",
        [ Alcotest.test_case "restart + degraded + recovery" `Quick
            test_watchdog_restart_and_degraded ] );
      ( "retries",
        [ Alcotest.test_case "drop_conn survived" `Quick
            test_retries_vs_drop_conn;
          Alcotest.test_case "backoff jitter reproducible per seed" `Quick
            test_backoff_jitter ] );
      ( "framing",
        [ Alcotest.test_case "1-byte trickle reassembles" `Quick
            test_one_byte_trickle;
          Alcotest.test_case "slowloris header cut" `Quick
            test_slowloris_header_times_out ] );
      ( "timeouts",
        [ Alcotest.test_case "client timeout vs mute server" `Quick
            test_client_timeout;
          Alcotest.test_case "idle connections reaped" `Quick
            test_idle_reaping ] );
      ( "chaos",
        [ Alcotest.test_case "300-request mixed-fault storm" `Quick
            test_chaos_mix ] ) ]
