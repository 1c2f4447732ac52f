(* techmapd: mapping-as-a-service over a Unix domain socket.

   Thread/domain layout: the run-thread owns accept; one systhread
   per connection frames requests and writes replies (blocking I/O
   drops the runtime lock, so connection threads are cheap and
   I/O-concurrent on domain 0); the CPU-bound request bodies are
   submitted to a Parmap pool in service mode, one job per request,
   so mapping runs genuinely parallel across worker domains while
   each job runs the Flow pipeline on one domain (many small jobs,
   not one big one).

   Failure containment: everything a request can raise — BLIF parse
   errors, unknown libraries, Mapper.Unmappable, plain bugs — is
   trapped at the job boundary and becomes a structured error reply
   on that connection only. Framing errors that lose the request
   boundary (unreadable payload length, truncated payload) get a
   final error reply and the connection is closed; the daemon
   itself never exits for a request's sake.

   Resilience: a request may carry an end-to-end budget
   (deadline_ms=), enforced at admission, while it waits for a
   worker, and while its payload is still arriving; every in-flight
   request is registered in a pending table that a watchdog thread
   scans, settling expired entries with structured deadline_exceeded
   replies. The same watchdog detects jobs overrunning the
   job_budget_s wall budget: it fails the stuck request, marks the
   pool unhealthy, and hands the pool to a background restarter
   while new requests are served inline on the connection thread
   with degraded=true. All socket reads and reply writes go through
   select so a slow or half-open peer can only stall its own
   connection, and only up to io_timeout_s; fully idle connections
   are reaped by a sweeper in the accept loop after idle_timeout_s.
   A Faultplan threads injected faults (crash/delay/drop/garble/
   stall) through all of the above for the chaos suite. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_timing
open Dagmap_flow
open Dagmap_check
open Dagmap_obs

type config = {
  socket_path : string;
  jobs : int;
  queue_max : int;
  libraries : (string * Libraries.t) list;
  resolve_circuit : (string -> Network.t) option;
  verbose : bool;
  io_timeout_s : float;
  idle_timeout_s : float;
  job_budget_s : float;
  faults : Faultplan.t;
}

type lib_entry = { lib : Libraries.t; db : Matchdb.t }

(* Ring size for the recent-latency window behind stats p50/p99. *)
let lat_ring = 4096

(* ------------------------------------------------------------------ *)
(* Small concurrency helpers                                           *)
(* ------------------------------------------------------------------ *)

type 'a ivar = {
  iv_mu : Mutex.t;
  iv_cond : Condition.t;
  mutable iv_v : 'a option;
}

let ivar () =
  { iv_mu = Mutex.create (); iv_cond = Condition.create (); iv_v = None }

let ivar_fill iv x =
  Mutex.lock iv.iv_mu;
  iv.iv_v <- Some x;
  Condition.signal iv.iv_cond;
  Mutex.unlock iv.iv_mu

let ivar_await iv =
  Mutex.lock iv.iv_mu;
  while iv.iv_v = None do
    Condition.wait iv.iv_cond iv.iv_mu
  done;
  let x = Option.get iv.iv_v in
  Mutex.unlock iv.iv_mu;
  x

(* How a registered request ends. Exactly one of these reaches the
   connection thread, whichever of job / watchdog / drain settles the
   pending record first. *)
type outcome =
  | O_ok of (string * Json.t) list
  | O_error of string * string
  | O_busy
  | O_deadline

(* One registered in-flight request. Settling is first-wins on
   [p_settled]: the job publishes its result, the watchdog publishes a
   deadline miss or a watchdog_timeout, the restarter publishes busy
   for queued jobs it is about to drop — whoever wins the CAS owns
   the reply. *)
type pending = {
  p_iv : outcome ivar;
  p_settled : bool Atomic.t;
  p_deadline : float;  (* absolute Clock time; infinity when unset *)
  p_started : float option Atomic.t;
  p_gen : int;         (* pool generation the job was submitted to *)
}

type conn = {
  c_fd : Unix.file_descr;
  c_last : float ref;
      (* last moment the connection was seen idle-at-the-top-of-loop;
         infinity while a request is being processed, so the idle
         sweeper never cuts a working connection *)
}

type t = {
  cfg : config;
  libs : (string * lib_entry) list;
  default_lib : string;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable pool : Parmap.pool;  (* guarded by mu *)
  mutable pool_gen : int;      (* guarded by mu *)
  healthy : bool Atomic.t;
  in_flight : int Atomic.t;
  served : int Atomic.t;
  errored : int Atomic.t;
  busied : int Atomic.t;
  deadlined : int Atomic.t;
  degraded : int Atomic.t;
  restarts : int Atomic.t;
  reaped : int Atomic.t;
  mu : Mutex.t;  (* guards conns, pending, reapers, pool, latency ring *)
  mutable conns : conn list;
  mutable pending : pending list;
  mutable threads : Thread.t list;  (* run-thread only *)
  mutable reapers : Thread.t list;
  mutable watchdog : Thread.t option;
  lat : float array;
  mutable lat_n : int;
  t0 : float;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "techmapd: %s\n%!" s)
    fmt

let register t ~deadline =
  Mutex.lock t.mu;
  let p =
    { p_iv = ivar ();
      p_settled = Atomic.make false;
      p_deadline = deadline;
      p_started = Atomic.make None;
      p_gen = t.pool_gen }
  in
  t.pending <- p :: t.pending;
  let pool = t.pool in
  Mutex.unlock t.mu;
  (p, pool)

let settle t p outcome =
  if Atomic.compare_and_set p.p_settled false true then begin
    Mutex.lock t.mu;
    t.pending <- List.filter (fun q -> q != p) t.pending;
    Mutex.unlock t.mu;
    Atomic.decr t.in_flight;
    ivar_fill p.p_iv outcome
  end

(* ------------------------------------------------------------------ *)
(* Buffered connection reader (select-bounded)                         *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type r = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
  }

  let create fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

  (* Make bytes available, waiting via select so the wait is bounded
     by [deadline] (infinity = wait forever, in 1s slices that stay
     responsive to a shutdown of the descriptor). Connection-level
     failures (peer reset, descriptor shut down under us) read as
     EOF: the connection is over either way. *)
  let refill r ~deadline =
    if r.pos < r.len then `Data
    else begin
      let rec wait () =
        if Clock.now () >= deadline then `Timeout
        else begin
          let slice = min 1.0 (deadline -. Clock.now ()) in
          match Unix.select [ r.fd ] [] [] slice with
          | [], _, _ -> wait ()
          | _ -> read_once ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | exception Unix.Unix_error _ -> `Eof
        end
      and read_once () =
        match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
        | 0 -> `Eof
        | n ->
          r.pos <- 0;
          r.len <- n;
          `Data
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          wait ()
        | exception Unix.Unix_error _ -> `Eof
      in
      wait ()
    end

  (* One header line, LF-terminated, at most Proto.max_header bytes.
     [`Line s] excludes the LF. [`Truncated] is data-then-EOF without
     a terminator; [`Too_long] consumed max_header bytes without one
     (the rest of the stream is unframeable). Waiting for the *first*
     byte is unbounded (idle keep-alive is the sweeper's business);
     once a partial header exists, every further refill must arrive
     within [io_timeout] or the read times out — a slowloris peer
     trickling a header cannot pin the thread. *)
  let read_line r ~io_timeout =
    let b = Buffer.create 128 in
    let rec go () =
      let deadline =
        if Buffer.length b > 0 && io_timeout > 0.0 then
          Clock.now () +. io_timeout
        else infinity
      in
      match refill r ~deadline with
      | `Timeout -> `Timeout
      | `Eof -> if Buffer.length b = 0 then `Eof else `Truncated
      | `Data -> (
        match Bytes.index_from_opt r.buf r.pos '\n' with
        | Some i when i < r.len ->
          Buffer.add_subbytes b r.buf r.pos (i - r.pos);
          r.pos <- i + 1;
          if Buffer.length b + 1 > Proto.max_header then `Too_long
          else `Line (Buffer.contents b)
        | _ ->
          Buffer.add_subbytes b r.buf r.pos (r.len - r.pos);
          r.pos <- r.len;
          if Buffer.length b >= Proto.max_header then `Too_long else go ())
    in
    go ()

  (* Exactly [n] payload bytes. Each refill must make progress within
     [io_timeout], and the whole read is additionally bounded by the
     request's absolute [deadline]. *)
  let read_exact r n ~io_timeout ~deadline =
    let out = Bytes.create n in
    let rec go filled =
      if filled = n then `Payload (Bytes.unsafe_to_string out)
      else begin
        let d =
          if io_timeout > 0.0 then Clock.now () +. io_timeout else infinity
        in
        match refill r ~deadline:(min d deadline) with
        | `Timeout -> `Timeout
        | `Eof -> `Eof
        | `Data ->
          let take = min (n - filled) (r.len - r.pos) in
          Bytes.blit r.buf r.pos out filled take;
          r.pos <- r.pos + take;
          go (filled + take)
      end
    in
    go 0
end

exception Io_timeout

(* EINTR: retry immediately at the same position. EAGAIN/EWOULDBLOCK
   (nonblocking descriptor, or a kernel buffer momentarily full):
   wait for writability via select — never a busy loop — and resume
   at the current position, so reply framing survives partial writes.
   With a finite [deadline] every write is preceded by a bounded
   writability wait, so a peer that stops reading can stall this
   reply for at most the deadline before Io_timeout. *)
let write_all ?(deadline = infinity) fd s pos len =
  let rec wait_writable () =
    if Clock.now () >= deadline then raise Io_timeout;
    let slice = min 1.0 (deadline -. Clock.now ()) in
    match Unix.select [] [ fd ] [] slice with
    | _, _ :: _, _ -> ()
    | _ -> wait_writable ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_writable ()
  in
  let rec go pos len =
    if len > 0 then begin
      if deadline < infinity then wait_writable ();
      match Unix.write_substring fd s pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        wait_writable ();
        go pos len
    end
  in
  go pos len

(* A reply that cannot be delivered (peer vanished mid-write) is not
   a daemon problem; SIGPIPE is ignored so this surfaces as EPIPE. *)
let send ?deadline fd doc =
  let s = Json.to_string doc ^ "\n" in
  try write_all ?deadline fd s 0 (String.length s)
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Request execution (runs on a pool worker domain)                    *)
(* ------------------------------------------------------------------ *)

exception Reply_error of string * string  (* code, message *)

let resolve_lib t name =
  let name = Option.value ~default:t.default_lib name in
  match List.assoc_opt name t.libs with
  | Some e -> e
  | None ->
    raise
      (Reply_error
         ( "unknown_lib",
           Printf.sprintf "library %S not loaded (have %s)" name
             (String.concat "/" (List.map fst t.libs)) ))

let resolve_engine = function
  | None -> Flow.Pattern Mapper.Dag
  | Some m -> (
    try Flow.engine_of_string m
    with Failure msg -> raise (Reply_error ("unknown_mode", msg)))

let load_network t (req : Proto.request) payload =
  match payload, req.Proto.circuit with
  | Some blif, _ -> (
    try Dagmap_blif.Blif.read_string ~file:"<payload>" blif
    with Dagmap_blif.Blif.Parse_error _ as e ->
      raise (Reply_error ("blif_parse", Dagmap_blif.Blif.describe e)))
  | None, Some spec -> (
    match t.cfg.resolve_circuit with
    | None ->
      raise
        (Reply_error
           ("no_circuit_resolver", "this daemon only accepts BLIF payloads"))
    | Some f -> (
      try f spec with
      | Flow.Too_large m -> raise (Reply_error ("too_large", m))
      | Failure m -> raise (Reply_error ("unknown_circuit", m))
      | Dagmap_blif.Blif.Parse_error _ as e ->
        raise (Reply_error ("blif_parse", Dagmap_blif.Blif.describe e))))
  | None, None ->
    raise
      (Reply_error
         ("bad_request", "map/check/sta need a payload or a circuit= spec"))

let issue_strings issues =
  Json.List
    (List.map
       (fun i -> Json.String (Format.asprintf "%a" Check.pp_issue i))
       issues)

(* Every request runs on one pool worker, so the engine runs at jobs 1:
   the daemon's parallelism is across requests. *)
let map_input t req payload =
  let net = load_network t req payload in
  let entry = resolve_lib t req.Proto.lib in
  let engine = resolve_engine req.Proto.mode in
  let g = Flow.decompose net in
  (g, Flow.map engine entry.db g)

let audit_issues g (r : Flow.result) =
  Check.audit g ~predicted:r.Flow.predicted r.Flow.netlist

let netlist_fields nl =
  [ ("delay", Json.Float (Netlist.delay nl));
    ("area", Json.Float (Netlist.area nl));
    ("gates", Json.Int (Netlist.num_gates nl));
    ("duplicated", Json.Int (Netlist.duplication nl)) ]

let exec_map t req payload =
  let g, r = map_input t req payload in
  let nl = r.Flow.netlist in
  let audit =
    if not req.Proto.audit then []
    else begin
      match audit_issues g r with
      | [] -> [ ("audit", Json.String "ok") ]
      | issues ->
        [ ("audit", Json.String "failed"); ("audit_issues", issue_strings issues) ]
    end
  in
  let matches =
    match r.Flow.run with
    | Flow.Pattern_run p -> p.Mapper.run.Mapper.matches_tried
    | Flow.Cut_run c -> c.Dagmap_cutmap.Cut_mapper.matches_evaluated
  in
  let blif =
    if req.Proto.want_blif then
      [ ("blif", Json.String (Dagmap_blif.Blif.write_netlist nl)) ]
    else []
  in
  [ ("subject_nodes", Json.Int (Subject.num_nodes g)) ]
  @ netlist_fields nl
  @ [ ("matches_tried", Json.Int matches) ]
  @ audit @ blif

let exec_check t req payload =
  let g, r = map_input t req payload in
  let issues = audit_issues g r in
  netlist_fields r.Flow.netlist
  @ [ ("clean", Json.Bool (issues = [])); ("issues", issue_strings issues) ]

let exec_sta t req payload =
  let _, r = map_input t req payload in
  let report = Sta.analyze r.Flow.netlist in
  let path =
    Json.List
      (List.map
         (fun pe ->
           Json.Obj
             [ ("gate", Json.String pe.Sta.pe_gate);
               ("pin", Json.Int pe.Sta.pe_through_pin);
               ("arrival", Json.Float pe.Sta.pe_arrival) ])
         report.Sta.critical_path)
  in
  netlist_fields r.Flow.netlist
  @ [ ("critical_output", Json.String report.Sta.critical_output);
      ("worst_delay", Json.Float report.Sta.worst_delay);
      ("critical_path", path) ]

let exec t (req : Proto.request) payload =
  Span.with_span ~cat:"serve" ("req:" ^ Proto.verb_name req.Proto.verb)
    (fun () ->
      match req.Proto.verb with
      | Proto.Map -> exec_map t req payload
      | Proto.Check -> exec_check t req payload
      | Proto.Sta -> exec_sta t req payload
      | Proto.Ping | Proto.Stats | Proto.Shutdown -> assert false)

(* The request body with fault hooks, trapped to an outcome. Runs on
   a pool worker normally, on the connection thread when degraded. *)
let trap_body t req payload =
  try
    (match Faultplan.delay_job t.cfg.faults with
     | Some d -> Unix.sleepf d
     | None -> ());
    if Faultplan.crash_job t.cfg.faults then
      raise (Reply_error ("injected_fault", "crash_job fault injected"));
    O_ok (exec t req payload)
  with
  | Reply_error (code, m) -> O_error (code, m)
  | Mapper.Unmappable { description; _ } -> O_error ("unmappable", description)
  | Failure m -> O_error ("failed", m)
  | Invalid_argument m -> O_error ("failed", m)
  | e -> O_error ("exception", Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Stats (served inline on the connection thread)                      *)
(* ------------------------------------------------------------------ *)

let record_latency t dt =
  Metrics.Histogram.observe (Metrics.histogram "serve.latency_seconds") dt;
  Mutex.lock t.mu;
  t.lat.(t.lat_n mod lat_ring) <- dt;
  t.lat_n <- t.lat_n + 1;
  Mutex.unlock t.mu

let latency_json t =
  Mutex.lock t.mu;
  let n = min t.lat_n lat_ring in
  let a = Array.sub t.lat 0 n in
  Mutex.unlock t.mu;
  Array.sort compare a;
  let q p =
    if n = 0 then 0.0
    else a.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n
  in
  Json.Obj
    [ ("window", Json.Int n);
      ("mean_ms", Json.Float (mean *. 1e3));
      ("p50_ms", Json.Float (q 0.50 *. 1e3));
      ("p90_ms", Json.Float (q 0.90 *. 1e3));
      ("p99_ms", Json.Float (q 0.99 *. 1e3));
      ("max_ms", Json.Float (q 1.0 *. 1e3)) ]

let faults_json t =
  let f = t.cfg.faults in
  if not (Faultplan.is_active f) then Json.Obj []
  else
    Json.Obj
      (("plan", Json.String (Faultplan.to_string f))
      :: List.map (fun (n, c) -> (n, Json.Int c)) (Faultplan.injected f))

let stats_fields t (req : Proto.request) =
  Mutex.lock t.mu;
  let pool = t.pool in
  Mutex.unlock t.mu;
  [ ("uptime_seconds", Json.Float (Clock.since t.t0));
    ("served", Json.Int (Atomic.get t.served));
    ("errors", Json.Int (Atomic.get t.errored));
    ("busy", Json.Int (Atomic.get t.busied));
    ("deadline_exceeded", Json.Int (Atomic.get t.deadlined));
    ("degraded", Json.Int (Atomic.get t.degraded));
    ("watchdog_restarts", Json.Int (Atomic.get t.restarts));
    ("idle_reaped", Json.Int (Atomic.get t.reaped));
    ("healthy", Json.Bool (Atomic.get t.healthy));
    ("in_flight", Json.Int (Atomic.get t.in_flight));
    ("queue_max", Json.Int t.cfg.queue_max);
    ("jobs", Json.Int (Parmap.pool_size pool));
    ("libraries",
     Json.List (List.map (fun (n, _) -> Json.String n) t.libs));
    ("faults", faults_json t);
    ("latency", latency_json t) ]
  @ if req.Proto.metrics then [ ("metrics", Metrics.to_json ()) ] else []

(* ------------------------------------------------------------------ *)
(* Replies (with fault hooks and bounded writes)                       *)
(* ------------------------------------------------------------------ *)

let ok_json ?id fields =
  Json.Obj
    ((match id with None -> [] | Some id -> [ ("id", Json.String id) ])
    @ [ ("status", Json.String "ok") ]
    @ fields)

let verb_counter verb =
  Metrics.counter ("serve.requests." ^ Proto.verb_name verb)

let io_deadline t =
  if t.cfg.io_timeout_s > 0.0 then Clock.now () +. t.cfg.io_timeout_s
  else infinity

let reply t fd doc =
  Atomic.incr t.served;
  Metrics.Counter.incr (Metrics.counter "serve.requests");
  if Faultplan.drop_conn t.cfg.faults then begin
    (* Reply withheld, connection cut: the client sees a clean EOF in
       place of its reply and treats it as transient. *)
    try Unix.shutdown fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end
  else if Faultplan.garble_reply t.cfg.faults then begin
    (* Corrupt beyond JSON parseability but keep the LF framing: a
       garbled reply must be *detectably* broken, never a plausible
       wrong answer the client would accept. *)
    let s = Json.to_string doc in
    let g = "!garbled " ^ s ^ "\n" in
    try write_all ~deadline:(io_deadline t) fd g 0 (String.length g)
    with Unix.Unix_error _ -> ()
  end
  else send ~deadline:(io_deadline t) fd doc

let reply_error t fd ?id ~code message =
  Atomic.incr t.errored;
  Metrics.Counter.incr (Metrics.counter "serve.errors");
  reply t fd (Proto.error_json ?id ~code message)

let reply_deadline t fd ?id ~t_admit ~deadline_ms () =
  Atomic.incr t.deadlined;
  Metrics.Counter.incr (Metrics.counter "serve.deadline_exceeded");
  let elapsed_ms = int_of_float (Clock.since t_admit *. 1e3) in
  reply t fd (Proto.deadline_json ?id ~elapsed_ms ~deadline_ms ())

let stop t =
  if not (Atomic.exchange t.stopping true) then
    try ignore (Unix.write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Watchdog: deadline settlement + stuck-pool restart                  *)
(* ------------------------------------------------------------------ *)

let watchdog_tick = 0.02

(* Retire the generation-[gen] pool in the background: shutdown joins
   the worker domains, which returns once the stuck job's wall time
   actually elapses (a domain cannot be killed, only outwaited) —
   meanwhile the accept path serves degraded, so the daemon never
   blocks on the wedge. *)
let restart_pool t gen stuck queued =
  Atomic.incr t.restarts;
  Metrics.Counter.incr (Metrics.counter "serve.watchdog_restarts");
  List.iter
    (fun p ->
      settle t p
        (O_error
           ( "watchdog_timeout",
             Printf.sprintf
               "job exceeded the %.3fs wall budget; worker pool restarted"
               t.cfg.job_budget_s )))
    stuck;
  (* Queued-unstarted jobs on the doomed pool would be dropped by its
     shutdown with their ivars never filled: settle them busy so the
     clients retry instead of hanging. *)
  List.iter (fun p -> settle t p O_busy) queued;
  let th =
    Thread.create
      (fun () ->
        Mutex.lock t.mu;
        let old = t.pool in
        Mutex.unlock t.mu;
        Parmap.shutdown_pool old;
        let fresh = Parmap.make_pool t.cfg.jobs in
        Mutex.lock t.mu;
        t.pool <- fresh;
        t.pool_gen <- gen + 1;
        Mutex.unlock t.mu;
        Atomic.set t.healthy true;
        log t "watchdog: worker pool restarted (generation %d)" (gen + 1))
      ()
  in
  Mutex.lock t.mu;
  t.reapers <- th :: t.reapers;
  Mutex.unlock t.mu

let watchdog_scan t =
  let now = Clock.now () in
  Mutex.lock t.mu;
  let ps = t.pending in
  let gen = t.pool_gen in
  Mutex.unlock t.mu;
  List.iter
    (fun p -> if now >= p.p_deadline then settle t p O_deadline)
    ps;
  if t.cfg.job_budget_s > 0.0 && Atomic.get t.healthy then begin
    let stuck =
      List.filter
        (fun p ->
          p.p_gen = gen
          && (not (Atomic.get p.p_settled))
          && (match Atomic.get p.p_started with
             | Some s -> now -. s > t.cfg.job_budget_s
             | None -> false))
        ps
    in
    if stuck <> [] && Atomic.compare_and_set t.healthy true false then begin
      let queued =
        List.filter
          (fun p -> p.p_gen = gen && Atomic.get p.p_started = None)
          ps
      in
      log t "watchdog: %d job(s) past the %.3fs budget; restarting pool"
        (List.length stuck) t.cfg.job_budget_s;
      restart_pool t gen stuck queued
    end
  end

let watchdog_loop t =
  while not (Atomic.get t.stopping) do
    Unix.sleepf watchdog_tick;
    if not (Atomic.get t.stopping) then watchdog_scan t
  done

(* Idle-connection sweeper, run from the accept loop: a connection
   idle past idle_timeout_s (no request in progress — c_last is
   infinity while one is) gets its descriptor shut down, which wakes
   its reader as EOF. Slowloris half-open connections die here. *)
let sweep t =
  if t.cfg.idle_timeout_s > 0.0 then begin
    let now = Clock.now () in
    Mutex.lock t.mu;
    let idle =
      List.filter (fun c -> !(c.c_last) < now -. t.cfg.idle_timeout_s) t.conns
    in
    (* Mark before shutting down so the next sweep doesn't count the
       same (not-yet-closed) connection again. *)
    List.iter (fun c -> c.c_last := infinity) idle;
    Mutex.unlock t.mu;
    List.iter
      (fun c ->
        Atomic.incr t.reaped;
        Metrics.Counter.incr (Metrics.counter "serve.idle_reaped");
        log t "reaping idle connection";
        try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ | Invalid_argument _ -> ())
      idle
  end

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

(* Deliver a settled outcome on the connection. [degraded] tags
   replies produced on the sequential fallback path. *)
let finish t fd ?id ~t_admit ~(req : Proto.request) ~degraded outcome =
  let tag doc =
    if not degraded then doc
    else
      match doc with
      | Json.Obj fields -> Json.Obj (fields @ [ ("degraded", Json.Bool true) ])
      | other -> other
  in
  match outcome with
  | O_ok fields ->
    let dt = Clock.since t_admit in
    record_latency t dt;
    reply t fd
      (tag
         (ok_json ?id
            (fields @ [ ("micros", Json.Int (int_of_float (dt *. 1e6))) ])))
  | O_error (code, m) ->
    Atomic.incr t.errored;
    Metrics.Counter.incr (Metrics.counter "serve.errors");
    reply t fd (tag (Proto.error_json ?id ~code m))
  | O_busy ->
    Atomic.incr t.busied;
    Metrics.Counter.incr (Metrics.counter "serve.busy");
    reply t fd
      (Proto.busy_json ?id ~depth:(Atomic.get t.in_flight)
         ~limit:t.cfg.queue_max ())
  | O_deadline ->
    reply_deadline t fd ?id ~t_admit
      ~deadline_ms:(Option.value ~default:0 req.Proto.deadline_ms) ()

(* Dispatch one framed request. [`Keep] continues the session;
   [`Close] ends it (framing no longer trustworthy). *)
let dispatch t fd ~t_admit (req : Proto.request) payload =
  let id = req.Proto.id in
  Metrics.Counter.incr (verb_counter req.Proto.verb);
  match req.Proto.verb with
  | Proto.Ping ->
    reply t fd (ok_json ?id [ ("reply", Json.String "pong") ]);
    `Keep
  | Proto.Stats ->
    reply t fd (ok_json ?id (stats_fields t req));
    `Keep
  | Proto.Shutdown ->
    reply t fd (ok_json ?id [ ("draining", Json.Bool true) ]);
    stop t;
    `Keep
  | Proto.Map | Proto.Check | Proto.Sta ->
    let deadline =
      match req.Proto.deadline_ms with
      | Some ms -> t_admit +. (float_of_int ms /. 1e3)
      | None -> infinity
    in
    if Clock.now () >= deadline then begin
      (* Admission check: the budget was spent while the request was
         still arriving — fail it before it costs a queue slot. *)
      reply_deadline t fd ?id ~t_admit
        ~deadline_ms:(Option.value ~default:0 req.Proto.deadline_ms) ();
      `Keep
    end
    else begin
      (* Backpressure: a bounded in-flight count (queued + running).
         fetch_and_add makes the admission decision atomic — overload
         turns into an immediate busy reply, never an unbounded
         queue. *)
      let depth = Atomic.fetch_and_add t.in_flight 1 in
      if depth >= t.cfg.queue_max then begin
        Atomic.decr t.in_flight;
        Atomic.incr t.busied;
        Metrics.Counter.incr (Metrics.counter "serve.busy");
        reply t fd (Proto.busy_json ?id ~depth ~limit:t.cfg.queue_max ());
        `Keep
      end
      else if not (Atomic.get t.healthy) then begin
        (* Degraded path: the pool is being restarted; run the body
           sequentially on this connection thread so service
           continues, and say so in the reply. *)
        Atomic.incr t.degraded;
        Metrics.Counter.incr (Metrics.counter "serve.degraded");
        let outcome =
          if Clock.now () >= deadline then O_deadline
          else trap_body t req payload
        in
        Atomic.decr t.in_flight;
        finish t fd ?id ~t_admit ~req ~degraded:true outcome;
        `Keep
      end
      else begin
        let p, pool = register t ~deadline in
        let job () =
          (* A record the watchdog already settled (deadline miss,
             pool restart) is dead: don't burn a worker on it. *)
          if not (Atomic.get p.p_settled) then begin
            Atomic.set p.p_started (Some (Clock.now ()));
            if Clock.now () >= p.p_deadline then settle t p O_deadline
            else settle t p (trap_body t req payload)
          end
        in
        if not (Parmap.submit pool job) then
          (* The pool shut down between register and submit (restart
             or drain race): busy → the client retries. *)
          settle t p
            (if Atomic.get t.stopping then
               O_error ("draining", "daemon is shutting down")
             else O_busy);
        let outcome = ivar_await p.p_iv in
        finish t fd ?id ~t_admit ~req ~degraded:false outcome;
        `Keep
      end
    end

let handle_conn t (c : conn) =
  let fd = c.c_fd in
  let r = Reader.create fd in
  let io = t.cfg.io_timeout_s in
  let rec loop () =
    c.c_last := Clock.now ();
    (match Faultplan.stall_read t.cfg.faults with
     | Some d -> Unix.sleepf d
     | None -> ());
    match Reader.read_line r ~io_timeout:io with
    | `Eof -> ()
    | `Timeout ->
      reply_error t fd ~code:"io_timeout"
        (Printf.sprintf "no header progress within %.3fs" io)
    | `Truncated ->
      reply_error t fd ~code:"truncated_header"
        "connection closed mid-header"
    | `Too_long ->
      reply_error t fd ~code:"header_too_long"
        (Printf.sprintf "header exceeds %d bytes" Proto.max_header)
    | `Line line -> (
      c.c_last := infinity;
      let t_admit = Clock.now () in
      match Proto.parse_request line with
      | Error e ->
        reply_error t fd ~code:e.Proto.code e.Proto.message;
        if e.Proto.fatal then () else loop ()
      | Ok req -> (
        let deadline =
          match req.Proto.deadline_ms with
          | Some ms -> t_admit +. (float_of_int ms /. 1e3)
          | None -> infinity
        in
        let payload =
          match req.Proto.payload with
          | None | Some 0 -> `Payload_none
          | Some n -> Reader.read_exact r n ~io_timeout:io ~deadline
        in
        match payload with
        | `Eof ->
          (* The peer may have half-closed (shutdown SEND) — the
             reply still flushes on its open receive side. *)
          reply_error t fd ?id:req.Proto.id ~code:"truncated_payload"
            (Printf.sprintf "connection closed before %d payload bytes"
               (Option.value ~default:0 req.Proto.payload))
        | `Timeout ->
          (* Stream position is lost mid-payload either way: reply
             and close. The deadline miss takes precedence over the
             per-read progress bound. *)
          if Clock.now () >= deadline then
            reply_deadline t fd ?id:req.Proto.id ~t_admit
              ~deadline_ms:(Option.value ~default:0 req.Proto.deadline_ms) ()
          else
            reply_error t fd ?id:req.Proto.id ~code:"io_timeout"
              (Printf.sprintf "no payload progress within %.3fs" io)
        | (`Payload_none | `Payload _) as p -> (
          let payload =
            match p with `Payload s -> Some s | `Payload_none -> None
          in
          match dispatch t fd ~t_admit req payload with
          | `Keep -> loop ()
          | `Close -> ())))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let claim_socket path =
  if Sys.file_exists path then begin
    (* A connectable socket means another daemon is live; a stale
       file from a dead one is replaced. *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith (Printf.sprintf "%s: a daemon is already serving here" path);
    try Sys.remove path with Sys_error _ -> ()
  end

let create cfg =
  if cfg.libraries = [] then failwith "techmapd: no libraries to serve";
  if cfg.jobs < 1 then failwith "techmapd: need at least one worker domain";
  if cfg.queue_max < 1 then failwith "techmapd: queue_max must be >= 1";
  Signals.ignore_sigpipe ();
  claim_socket cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let libs =
    List.map
      (fun (name, lib) -> (name, { lib; db = Matchdb.prepare lib }))
      cfg.libraries
  in
  let t =
    { cfg;
      libs;
      default_lib = fst (List.hd libs);
      listen_fd;
      wake_r;
      wake_w;
      stopping = Atomic.make false;
      pool = Parmap.make_pool cfg.jobs;
      pool_gen = 0;
      healthy = Atomic.make true;
      in_flight = Atomic.make 0;
      served = Atomic.make 0;
      errored = Atomic.make 0;
      busied = Atomic.make 0;
      deadlined = Atomic.make 0;
      degraded = Atomic.make 0;
      restarts = Atomic.make 0;
      reaped = Atomic.make 0;
      mu = Mutex.create ();
      conns = [];
      pending = [];
      threads = [];
      reapers = [];
      watchdog = None;
      lat = Array.make lat_ring 0.0;
      lat_n = 0;
      t0 = Clock.now () }
  in
  log t "serving %s (%d worker domains, queue %d, libraries %s%s)"
    cfg.socket_path cfg.jobs cfg.queue_max
    (String.concat "/" (List.map fst libs))
    (if Faultplan.is_active cfg.faults then
       ", faults " ^ Faultplan.to_string cfg.faults
     else "");
  t

let conn_thread t c =
  (try handle_conn t c with _ -> ());
  Mutex.lock t.mu;
  t.conns <- List.filter (fun c' -> c' != c) t.conns;
  Mutex.unlock t.mu;
  try Unix.close c.c_fd with Unix.Unix_error _ -> ()

(* Graceful drain: stop accepting, wake idle readers by shutting the
   receive side only (in-flight jobs still complete and their replies
   flush on the open send side), join every connection thread, the
   watchdog and any pool restarters, then quiesce and retire the
   worker pool — with a bound, so a wedged job delays shutdown by at
   most its own remaining wall time plus 5s, never forever. *)
let drain t =
  log t "draining (%d requests served)" (Atomic.get t.served);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  Mutex.lock t.mu;
  let conns = t.conns in
  Mutex.unlock t.mu;
  List.iter
    (fun c ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ | Invalid_argument _ -> ())
    conns;
  List.iter Thread.join t.threads;
  Option.iter Thread.join t.watchdog;
  Mutex.lock t.mu;
  let reapers = t.reapers in
  Mutex.unlock t.mu;
  List.iter Thread.join reapers;
  Mutex.lock t.mu;
  let pool = t.pool in
  Mutex.unlock t.mu;
  if not (Parmap.drain_for pool ~seconds:5.0) then
    log t "pool did not quiesce within 5s; shutting down anyway";
  Parmap.shutdown_pool pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  log t "drained cleanly"

let run t =
  t.watchdog <- Some (Thread.create (fun () -> watchdog_loop t) ());
  let tick =
    if t.cfg.idle_timeout_s > 0.0 then max 0.05 (t.cfg.idle_timeout_s /. 4.0)
    else -1.0
  in
  let rec accept_loop () =
    if Atomic.get t.stopping then ()
    else begin
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] tick with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ ->
        sweep t;
        accept_loop ()
      | ready, _, _ ->
        if List.mem t.wake_r ready || Atomic.get t.stopping then ()
        else begin
          (match Unix.accept ~cloexec:true t.listen_fd with
           | exception
               Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
             ()
           | fd, _ ->
             let c = { c_fd = fd; c_last = ref (Clock.now ()) } in
             Mutex.lock t.mu;
             t.conns <- c :: t.conns;
             Mutex.unlock t.mu;
             t.threads <-
               Thread.create (fun () -> conn_thread t c) () :: t.threads);
          sweep t;
          accept_loop ()
        end
    end
  in
  accept_loop ();
  drain t

let requests_served t = Atomic.get t.served
