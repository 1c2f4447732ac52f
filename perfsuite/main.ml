(* perfsuite: the repository benchmark (README.md beside this file).

   One invocation measures one workload:

     main.exe run --workload W --seed S --seconds T --trace 0|1

   Its last stdout line is one JSON object {"correct", "attempted",
   "failed", "metrics"}; the metric names and units are the ones
   BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
   --trace 1).

     main.exe reference > perfsuite/reference.tsv

   maps every circuit the workloads can draw and prints its delay and
   area: the table every run checks its outputs against.

   Process model. The [run] parent maps nothing itself:
   - a batch workload runs one fresh child per pass, because a CLI
     user pays a cold process every time, until T seconds are spent;
     each child's peak RSS is then a per-pass reading;
   - serve_mix runs its phases in one child, which hosts the daemon
     in process and drives it from two client threads, between
     set-up-only children;
   - every child reports the time from its spawn until its library
     was prepared and its inputs generated (setup_s), so set-up is
     sampled across the run rather than in one phase of the
     machine's speed.
   Each child reports one JSON line of readings and the parent takes
   medians. Layers are timed from outside, around calls into their
   public functions, so nothing under lib/ changes. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_blif
open Dagmap_cutmap
open Dagmap_check
open Dagmap_obs

type workload = Iscas_rich | Soc_arena | Cut_random | Serve_mix

let workloads =
  [ ("iscas_rich", Iscas_rich);
    ("soc_arena", Soc_arena);
    ("cut_random", Cut_random);
    ("serve_mix", Serve_mix) ]

let library_of = function
  | Iscas_rich -> "44-3"
  | Soc_arena -> "44-1"
  | Cut_random | Serve_mix -> "lib2"

(* Sizes: one batch pass takes 1.5-2 s on a 2-core x86 box. The cut
   workload maps random logic rather than a SoC: at a size that fits a
   pass, the SoC block mix varies so much between seeds (1.7-3.0 s,
   66-142 MB) that a run's median would measure the seed. It is the
   union of many small parts because [Generators.random_dag] takes
   time quadratic in its node count. *)
let soc_nodes = 20_000
let cut_parts = 16
let cut_part_nodes = 2_500
(* serve_mix's set-up-only children on each side of its pass. *)
let serve_setups = 3
let min_passes = 3

(* The batch workloads draw their circuits from a fixed family of
   [family_size] generated instances, and serve_mix sends a fixed
   corpus; the seed chooses the order. Both are finite so that every
   circuit's delay and area can be stored in [reference_file]. *)
let family_size = 32

(* serve_mix: 2 worker domains and 2 client connections fit a 2-core
   box. The open-loop rate is about a quarter of the closed-loop
   capacity measured there (260-330 requests/s): at half of it,
   queueing amplified the machine's speed drift into a 36% run-to-run
   spread of the median latency. *)
let serve_jobs = 2
let serve_conns = 2
let serve_rate = 75.0
let serve_corpus = 96

(* Relative to the checkout root. Sockets and traces go to [out_dir]. *)
let out_dir = "perfsuite-out"
let reference_file = "perfsuite/reference.tsv"

(* A seeded permutation of 0 .. k-1. *)
let shuffled ~seed k =
  let st = Random.State.make [| 0x5EED; seed |] in
  let a = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Readings, taken inside a child                                      *)
(* ------------------------------------------------------------------ *)

let readings : (string, float) Hashtbl.t = Hashtbl.create 64

let reading name = Option.value ~default:0.0 (Hashtbl.find_opt readings name)
let add name v = Hashtbl.replace readings name (v +. reading name)

let allocated_mb () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8) /. 1e6

(* One call into a layer: its wall seconds go to [name_s] and the
   heap it allocated to [name_alloc_mb]. The span is recorded only
   when tracing is on. *)
let layer name f =
  let mb0 = allocated_mb () and t0 = Clock.now () in
  let r = Span.with_span ~cat:"perfsuite" name f in
  add (name ^ "_s") (Clock.since t0);
  add (name ^ "_alloc_mb") (allocated_mb () -. mb0);
  r

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let since_spawn spawn_ns =
  Int64.to_float (Int64.sub (Clock.monotonic_ns ()) spawn_ns) /. 1e9

let report ~ops ~failed =
  let fields =
    Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) readings []
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("ops", Json.Int ops);
            ("failed", Json.Int failed);
            ("readings", Json.Obj (List.sort compare fields)) ]))

(* Self time per span name: each span's duration minus the part its
   direct children (spans nested inside it on the same domain) cover.
   [Span.events] lists parents before the children they enclose. *)
let self_time_table () =
  let totals = Hashtbl.create 16 in
  let close (e, kids) =
    let calls, total, self =
      Option.value ~default:(0, 0L, 0L)
        (Hashtbl.find_opt totals e.Span.ev_name)
    in
    Hashtbl.replace totals e.Span.ev_name
      ( calls + 1,
        Int64.add total e.Span.ev_dur_ns,
        Int64.add self (Int64.sub e.Span.ev_dur_ns !kids) )
  in
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let ends p = Int64.add p.Span.ev_ts_ns p.Span.ev_dur_ns in
      let rec pop = function
        | (p, kids) :: rest when Int64.compare (ends p) e.Span.ev_ts_ns <= 0 ->
          close (p, kids);
          pop rest
        | stack -> stack
      in
      let stack =
        pop (Option.value ~default:[] (Hashtbl.find_opt stacks e.Span.ev_tid))
      in
      (match stack with
       | (_, kids) :: _ -> kids := Int64.add !kids e.Span.ev_dur_ns
       | [] -> ());
      Hashtbl.replace stacks e.Span.ev_tid ((e, ref 0L) :: stack))
    (Span.events ());
  Hashtbl.iter (fun _ stack -> List.iter close stack) stacks;
  let rows = Hashtbl.fold (fun n v acc -> (n, v) :: acc) totals [] in
  let rows =
    List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Int64.compare b a) rows
  in
  let ms ns = Int64.to_float ns /. 1e6 in
  Printf.eprintf "%-24s %8s %12s %12s %12s\n" "span" "calls" "total ms"
    "self ms" "alloc MB";
  List.iter
    (fun (name, (calls, total, self)) ->
      let alloc =
        match Hashtbl.find_opt readings (name ^ "_alloc_mb") with
        | Some mb -> Printf.sprintf "%12.1f" mb
        | None -> Printf.sprintf "%12s" "-"
      in
      Printf.eprintf "%-24s %8d %12.2f %12.2f %s\n" name calls (ms total)
        (ms self) alloc)
    rows

(* The child that was handed a trace file (the first pass) prints the
   table and writes the Chrome trace; the other traced passes only
   contribute readings. *)
let finish_trace trace_file =
  if Span.is_enabled () && trace_file <> "-" then begin
    self_time_table ();
    Span.write_chrome trace_file;
    Printf.eprintf "perfsuite: wrote %s\n%!" trace_file
  end

(* ------------------------------------------------------------------ *)
(* Reference quality                                                   *)
(* ------------------------------------------------------------------ *)

(* Circuit key -> (delay, area), from [reference_file]: one
   tab-separated line "key delay area" per circuit, '#' comments. *)
let references =
  lazy
    (let table = Hashtbl.create 256 in
     let ic = open_in reference_file in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         try
           while true do
             match String.split_on_char '\t' (input_line ic) with
             | [ key; delay; area ] ->
               Hashtbl.replace table key (float_of_string delay, float_of_string area)
             | _ -> ()
           done
         with End_of_file -> ());
     table)

let print_reference key ~delay ~area = Printf.printf "%s\t%.17g\t%.17g\n%!" key delay area

(* Mapped quality may improve on the reference but never worsen:
   [None] when [delay] and [area] are within 1e-9 relative of the
   stored values or below them, else the reason. *)
let worse_than_reference key ~delay ~area =
  match Hashtbl.find_opt (Lazy.force references) key with
  | None -> Some (Printf.sprintf "%s: no reference in %s" key reference_file)
  | Some (d, a) ->
    let worse x ref_x = x > ref_x +. (1e-9 *. Float.abs ref_x) in
    if worse delay d || worse area a then
      Some
        (Printf.sprintf "%s: delay %.17g area %.17g, reference %.17g %.17g" key
           delay area d a)
    else None

(* ------------------------------------------------------------------ *)
(* Batch workloads                                                     *)
(* ------------------------------------------------------------------ *)

let prepare w =
  let lib =
    layer "genlib.load" (fun () -> Option.get (Libraries.by_name (library_of w)))
  in
  layer "matchdb.prepare" (fun () ->
      let db = Matchdb.prepare lib in
      if w = Cut_random then ignore (Matchdb.boolean db);
      db)

(* Family member [instance]'s circuits, each with its reference key
   and the timed step that loads it. The SoCs and the random logic
   arrive as BLIF text (written untimed) and are parsed. The paper
   circuits are the same for every instance and are mapped as
   generated: a BLIF round trip turns their node functions into SOP
   covers, whose different decomposition no longer reproduces
   EXPERIMENTS.md Table 3. *)
let inputs w ~instance =
  let blif key net =
    let text = Blif.write_network net in
    ( key,
      fun () ->
        layer "blif.read" (fun () -> Blif_stream.read_string ~file:"<input>" text) )
  in
  match w with
  | Iscas_rich ->
    List.map
      (fun (name, net) -> ("iscas_rich/" ^ name, fun () -> net))
      [ ("C2670", Iscas_like.c2670_like ()); ("C6288", Iscas_like.c6288_like ()) ]
  | Soc_arena ->
    [ blif
        (Printf.sprintf "soc_arena/%d" instance)
        (Generators.synthetic_soc ~seed:(instance + 1) ~nodes:soc_nodes ()) ]
  | Cut_random ->
    [ blif
        (Printf.sprintf "cut_random/%d" instance)
        (Generators.combine ~name:"random"
           (List.init cut_parts (fun k ->
                Generators.random_dag ~seed:((instance * cut_parts) + k + 1)
                  ~inputs:32 ~outputs:64 ~nodes:cut_part_nodes ()))) ]
  | Serve_mix -> invalid_arg "perfsuite: serve_mix has no batch inputs"

let audit ~rounds g ~predicted nl =
  match layer "check.lint" (fun () -> Check.structural nl) with
  | _ :: _ as issues ->
    (* STA and simulation are undefined on a malformed netlist. *)
    issues
  | [] ->
    let sta = layer "check.sta" (fun () -> Check.delay ~predicted nl) in
    sta @ layer "check.equiv" (fun () -> Check.functional ~rounds g nl)

let record_mapper (r : Mapper.result) =
  let s = r.Mapper.run in
  add "mapper.label_s" s.Mapper.label_seconds;
  add "mapper.cover_s" s.Mapper.cover_seconds;
  add "mapper.matches_tried" (float_of_int s.Mapper.matches_tried);
  add "matchdb.cache_lookups" (float_of_int s.Mapper.cache_lookups);
  add "matchdb.cache_hits" (float_of_int s.Mapper.cache_hits)

(* One circuit through the whole flow: load, decompose, map, audit,
   write. Returns the netlist and the audit issues. *)
let map_circuit w db load =
  let net = load () in
  let arena () =
    let a = layer "arena.build" (fun () -> Arena.of_network net) in
    (a, layer "arena.to_subject" (fun () -> Arena.to_subject a))
  in
  let g, nl, predicted, rounds =
    match w with
    | Iscas_rich ->
      let g = layer "subject.decompose" (fun () -> Subject.of_network net) in
      let r = layer "mapper.map" (fun () -> Mapper.map Mapper.Dag db g) in
      record_mapper r;
      (g, r.Mapper.netlist, Mapper.predicted_arrivals r, 16)
    | Soc_arena ->
      let a, g = arena () in
      let r =
        layer "mapper.map" (fun () -> Arena_map.map ~subject:g Mapper.Dag db a)
      in
      record_mapper r;
      (g, r.Mapper.netlist, Mapper.predicted_arrivals r, 4)
    | Cut_random ->
      let a, g = arena () in
      let r, _ =
        layer "cutmap.map" (fun () ->
            Arena_cuts.map ~jobs:1 ~priority:8 ~subject:g (Matchdb.boolean db) a)
      in
      add "cutmap.matches_evaluated"
        (float_of_int r.Cut_mapper.matches_evaluated);
      add "cutmap.matched_nodes" (float_of_int r.Cut_mapper.matched_nodes);
      (g, r.Cut_mapper.netlist, Cut_mapper.predicted_arrivals r, 4)
    | Serve_mix -> invalid_arg "perfsuite: serve_mix is not a batch flow"
  in
  add "subject.nodes" (float_of_int (Subject.num_nodes g));
  let issues = audit ~rounds g ~predicted nl in
  ignore (layer "blif.write" (fun () -> Blif.write_netlist nl) : string);
  add "netlist.gates" (float_of_int (Netlist.num_gates nl));
  (nl, issues)

let batch_pass w ~instance ~trace_file ~spawn_ns =
  let db = prepare w in
  let circuits = inputs w ~instance in
  add "setup_s" (since_spawn spawn_ns);
  Gc.compact ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let mb0 = allocated_mb () in
  let t0 = Clock.now () in
  let failed = ref 0 and log_delay = ref 0.0 and log_area = ref 0.0 in
  List.iter
    (fun (key, load) ->
      match map_circuit w db load with
      | nl, issues ->
        List.iter
          (fun i -> Format.eprintf "perfsuite: %s: %a@." key Check.pp_issue i)
          issues;
        let delay = Netlist.delay nl and area = Netlist.area nl in
        let worse = worse_than_reference key ~delay ~area in
        Option.iter (Printf.eprintf "perfsuite: %s\n%!") worse;
        if issues <> [] || worse <> None then incr failed;
        (match Hashtbl.find_opt (Lazy.force references) key with
         | Some (d, a) ->
           log_delay := !log_delay +. log (delay /. d);
           log_area := !log_area +. log (area /. a)
         | None -> ())
      | exception e ->
        Printf.eprintf "perfsuite: %s raised %s\n%!" key (Printexc.to_string e);
        incr failed)
    circuits;
  let pass_s = Clock.since t0 in
  add "latency_ms" (pass_s *. 1e3);
  add "throughput_per_s" (reading "subject.nodes" /. pass_s);
  add "gc.alloc_mb" (allocated_mb () -. mb0);
  add "gc.major_collections"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors0));
  let n = float_of_int (List.length circuits) in
  add "quality.delay_ratio" (exp (!log_delay /. n));
  add "quality.area_ratio" (exp (!log_area /. n));
  let lookups = reading "matchdb.cache_lookups" in
  if lookups > 0.0 then
    add "matchdb.cache_hit_ratio" (reading "matchdb.cache_hits" /. lookups);
  add "peak_rss_mb" (float_of_int (Resource.peak_rss_bytes ()) /. 1e6);
  finish_trace trace_file;
  report ~ops:(List.length circuits) ~failed:!failed

(* ------------------------------------------------------------------ *)
(* serve_mix                                                           *)
(* ------------------------------------------------------------------ *)

module Serve = struct
  open Dagmap_serve

  let status reply =
    Option.value ~default:"?"
      (Option.bind (Json.member "status" reply) Json.to_string_value)

  (* The request payloads: small seeded random circuits as BLIF. *)
  let corpus () =
    Array.init serve_corpus (fun i ->
        let nodes = 30 + (i * 17 mod 91) in
        Blif.write_network
          (Generators.random_dag ~seed:(i + 1) ~inputs:12 ~outputs:8 ~nodes ()))

  let key i = Printf.sprintf "serve_mix/%d" i

  (* What the daemon's dag map of a corpus circuit must come to. *)
  let map_locally db blif =
    (Mapper.map Mapper.Dag db (Subject.of_network (Blif.read_string blif)))
      .Mapper.netlist

  (* Library load, daemon creation and the first answered ping.
     Returns the socket and the daemon's stop function. *)
  let start () =
    let lib =
      layer "genlib.load" (fun () -> Option.get (Libraries.by_name "lib2"))
    in
    let sock = Printf.sprintf "%s/techmapd-%d.sock" out_dir (Unix.getpid ()) in
    layer "serve.ready" (fun () ->
        let srv =
          Server.create
            { Server.socket_path = sock;
              jobs = serve_jobs;
              queue_max = 32;
              libraries = [ ("lib2", lib) ];
              resolve_circuit = None;
              verbose = false;
              io_timeout_s = 30.0;
              idle_timeout_s = 0.0;
              job_budget_s = 0.0;
              faults = Faultplan.none }
        in
        let th = Thread.create Server.run srv in
        let stop () =
          Server.stop srv;
          Thread.join th
        in
        match
          let c = Client.connect ~timeout_s:30.0 sock in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> Client.request c (Proto.request Proto.Ping))
        with
        | reply when status reply = "ok" -> (sock, stop)
        | reply ->
          stop ();
          failwith ("perfsuite: ping answered " ^ Json.to_string reply)
        | exception e ->
          stop ();
          raise e)

  type sample = { latency : float; late : float; rtt : float; server : float }

  let setup ~spawn_ns =
    let _, stop = start () in
    ignore (corpus ());
    add "setup_s" (since_spawn spawn_ns);
    stop ();
    report ~ops:0 ~failed:0

  let pass ~seed ~seconds ~trace_file ~spawn_ns =
    let sock, stop = start () in
    Fun.protect ~finally:stop @@ fun () ->
    let corpus = corpus () in
    add "setup_s" (since_spawn spawn_ns);
    let order = shuffled ~seed serve_corpus in
    let attempted = Atomic.make 0 and failed = Atomic.make 0 in
    let fail i m =
      if Atomic.fetch_and_add failed 1 < 10 then
        Printf.eprintf "perfsuite: request %d failed: %s\n%!" i m
    in
    (* Request [i] of a 3:1:1 mix of audited map, check and sta over
       the corpus, in the seed's order. Returns the daemon's own time
       for it (admission to reply, ms) when the reply is correct. *)
    let serve_one session i =
      Atomic.incr attempted;
      let ci = order.(i mod serve_corpus) in
      let req =
        match i mod 5 with
        | 0 | 1 | 2 -> { (Proto.request Proto.Map) with Proto.audit = true }
        | 3 -> Proto.request Proto.Check
        | _ -> Proto.request Proto.Sta
      in
      let req = { req with Proto.lib = Some "lib2" } in
      match Client.call session ~payload:corpus.(ci) req with
      | exception e ->
        fail i (Printexc.to_string e);
        None
      | Error m ->
        fail i m;
        None
      | Ok reply -> (
        let num name = Option.bind (Json.member name reply) Json.to_number in
        let quality =
          match num "delay", num "area" with
          | Some delay, Some area -> worse_than_reference (key ci) ~delay ~area
          | _ -> Some "no delay or area"
        in
        let audited =
          match req.Proto.verb with
          | Proto.Map ->
            Option.bind (Json.member "audit" reply) Json.to_string_value
            = Some "ok"
          | Proto.Check -> Json.member "clean" reply = Some (Json.Bool true)
          | _ -> true
        in
        match num "micros", quality with
        | Some us, None when status reply = "ok" && audited -> Some (us /. 1e3)
        | _ ->
          fail i
            (Option.value ~default:"" quality ^ " reply " ^ Json.to_string reply);
          None)
    in
    let sessions =
      List.init serve_conns (fun k ->
          Client.session ~timeout_s:30.0 ~seed:((seed * serve_conns) + k) sock)
    in
    Fun.protect ~finally:(fun () -> List.iter Client.end_session sessions)
    @@ fun () ->
    let next = Atomic.make 0 in
    let on_threads f =
      List.iter Thread.join (List.mapi (fun k s -> Thread.create (f k) s) sessions)
    in
    (* Closed loop: each connection sends its next request as soon as
       the previous reply is in. Returns completed requests per second. *)
    let closed_loop ~until =
      let completed = Atomic.make 0 in
      let t0 = Clock.now () in
      on_threads (fun _ s ->
          while Clock.now () < until do
            if serve_one s (Atomic.fetch_and_add next 1) <> None then
              Atomic.incr completed
          done);
      float_of_int (Atomic.get completed) /. Clock.since t0
    in
    (* Open loop: connection k sends its j-th request at its due time
       t0 + (k + j * conns) / rate. When the previous reply on that
       connection is still outstanding the request goes out late, and
       its latency still runs from the due time. *)
    let open_loop ~duration =
      let t0 = Clock.now () +. 0.005 in
      let samples = Array.make serve_conns [] in
      on_threads (fun k s ->
          let j = ref 0 in
          let due () =
            t0 +. (float_of_int (k + (!j * serve_conns)) /. serve_rate)
          in
          while due () < t0 +. duration do
            let due = due () in
            let wait = due -. Clock.now () in
            if wait > 0.0 then Unix.sleepf wait;
            let sent = Clock.now () in
            (match serve_one s (Atomic.fetch_and_add next 1) with
             | Some server ->
               let fin = Clock.now () in
               samples.(k) <-
                 { latency = (fin -. due) *. 1e3;
                   late = (sent -. due) *. 1e3;
                   rtt = (fin -. sent) *. 1e3;
                   server }
                 :: samples.(k)
             | None -> ());
            incr j
          done);
      List.concat (Array.to_list samples)
    in
    (* Warm-up, then the measured phases: a third of the window closed
       loop, the rest open loop. Per-layer readings cover the open loop
       only, so the trace restarts there. *)
    ignore (closed_loop ~until:(Clock.now () +. 0.5));
    let closed_s = seconds /. 3.0 in
    add "throughput_per_s" (closed_loop ~until:(Clock.now () +. closed_s));
    Span.reset ();
    let samples = open_loop ~duration:(seconds -. closed_s) in
    let pick f = List.map f samples in
    add "latency_ms" (median (pick (fun s -> s.latency)));
    add "serve.latency_ms_p90" (percentile 0.9 (pick (fun s -> s.latency)));
    add "serve.rtt_ms_p50" (median (pick (fun s -> s.rtt)));
    add "serve.rtt_ms_p99" (percentile 0.99 (pick (fun s -> s.rtt)));
    add "serve.server_ms_p50" (median (pick (fun s -> s.server)));
    add "serve.server_ms_p99" (percentile 0.99 (pick (fun s -> s.server)));
    add "serve.gen_late_ms_p99" (percentile 0.99 (pick (fun s -> s.late)));
    let execs =
      List.filter_map
        (fun e ->
          if String.starts_with ~prefix:"req:" e.Span.ev_name then
            Some (Int64.to_float e.Span.ev_dur_ns /. 1e6)
          else None)
        (Span.events ())
    in
    if execs <> [] then begin
      add "serve.exec_ms_p50" (median execs);
      add "serve.exec_ms_p99" (percentile 0.99 execs)
    end;
    List.iter
      (fun s ->
        let c = Client.counters s in
        add "serve.busy_retries" (float_of_int c.Client.retried_busy);
        add "serve.transient_retries" (float_of_int c.Client.retried_transient))
      sessions;
    add "peak_rss_mb" (float_of_int (Resource.peak_rss_bytes ()) /. 1e6);
    finish_trace trace_file;
    report ~ops:(Atomic.get attempted) ~failed:(Atomic.get failed)
end

(* ------------------------------------------------------------------ *)
(* Reference table                                                     *)
(* ------------------------------------------------------------------ *)

(* Every circuit a run can draw, mapped and audited. *)
let print_references () =
  print_string
    "# Delay and area of every circuit a perfsuite run can draw, as mapped\n\
     # and audited by `main.exe reference`. Runs fail on any worse value.\n";
  List.iter
    (fun (name, w) ->
      match w with
      | Serve_mix ->
        let db = Matchdb.prepare (Option.get (Libraries.by_name (library_of w))) in
        Array.iteri
          (fun i blif ->
            let nl = Serve.map_locally db blif in
            print_reference (Serve.key i) ~delay:(Netlist.delay nl)
              ~area:(Netlist.area nl))
          (Serve.corpus ())
      | _ ->
        let db = prepare w in
        let members = if w = Iscas_rich then 1 else family_size in
        for instance = 0 to members - 1 do
          List.iter
            (fun (key, load) ->
              match map_circuit w db load with
              | nl, [] ->
                print_reference key ~delay:(Netlist.delay nl) ~area:(Netlist.area nl)
              | _ -> failwith (Printf.sprintf "perfsuite: %s %s fails its audit" name key))
            (inputs w ~instance)
        done)
    workloads

(* ------------------------------------------------------------------ *)
(* Parent                                                              *)
(* ------------------------------------------------------------------ *)

type child = { ops : int; failed : int; values : (string * float) list }

(* Run this executable as a child and parse the JSON line it ends
   with. A child that dies or prints no result counts as one failed
   operation. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      ((Sys.executable_name :: "child" :: args)
      @ [ Int64.to_string (Clock.monotonic_ns ()) ])
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec last acc =
    match input_line ic with
    | line -> last (Some line)
    | exception End_of_file -> acc
  in
  let line = last None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let parsed =
    match status, line with
    | Unix.WEXITED 0, Some line -> (
      match Json.parse line with
      | doc -> (
        let int name = Option.bind (Json.member name doc) Json.to_number in
        match int "ops", int "failed", Json.member "readings" doc with
        | Some ops, Some failed, Some (Json.Obj fields) ->
          Some
            { ops = int_of_float ops;
              failed = int_of_float failed;
              values =
                List.filter_map
                  (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_number v))
                  fields }
        | _ -> None)
      | exception Json.Parse_error _ -> None)
    | _ -> None
  in
  match parsed with
  | Some c -> c
  | None ->
    Printf.eprintf "perfsuite: child %s failed\n%!" (String.concat " " args);
    { ops = 1; failed = 1; values = [] }

let values key children = List.filter_map (fun c -> List.assoc_opt key c.values) children

(* Metric names and units, in declaration order, from BENCHMARK.json. *)
let declared section =
  let ic = open_in_bin "BENCHMARK.json" in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Json.parse (really_input_string ic (in_channel_length ic)))
  in
  List.map
    (fun m ->
      let str k = Option.get (Option.bind (Json.member k m) Json.to_string_value) in
      (str "name", str "unit"))
    (Option.get (Option.bind (Json.member section doc) Json.to_list))

let run w name ~seed ~seconds ~trace =
  let metrics = declared (if trace then "per_layer" else "end_to_end") in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_file = Printf.sprintf "%s/trace-%s.json" out_dir name in
  (* Batch pass n maps the n-th member of the seed's order. *)
  let child kind n file =
    spawn
      [ kind; name; string_of_int seed; string_of_int n; string_of_int seconds;
        (if trace then "1" else "0"); file ]
  in
  let all =
    match w with
    | Serve_mix ->
      let setups () = List.init serve_setups (fun n -> child "setup" n "-") in
      let before = setups () in
      let pass = child "pass" 0 trace_file in
      before @ (pass :: setups ())
    | _ ->
      let t0 = Clock.now () in
      let rec go acc n =
        if n >= min_passes && Clock.since t0 >= float_of_int seconds then
          List.rev acc
        else
          let file = if n = 0 then trace_file else "-" in
          go (child "pass" n file :: acc) (n + 1)
      in
      go [] 0
  in
  let attempted = List.fold_left (fun a c -> a + c.ops) 0 all in
  let failed = List.fold_left (fun a c -> a + c.failed) 0 all in
  let value = function
    | "latency_p50_ms" | "traced.latency_p50_ms" -> median (values "latency_ms" all)
    | key -> ( match values key all with [] -> 0.0 | xs -> median xs)
  in
  let results = List.map (fun (m, unit) -> (m, unit, value m)) metrics in
  let measured =
    trace || List.for_all (fun (_, _, v) -> Float.is_finite v && v > 0.0) results
  in
  Printf.printf "perfsuite %s seed=%d: %d children, %d/%d ops failed\n" name seed
    (List.length all) failed attempted;
  List.iter (fun (m, unit, v) -> Printf.printf "  %-28s %14.6g %s\n" m v unit) results;
  let correct = failed = 0 && measured in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 attempted));
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m, unit, v) ->
                     (m, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   results) ) ]));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload (iscas_rich|soc_arena|cut_random|serve_mix) \
     --seed N --seconds T --trace 0|1\n       main.exe reference";
  exit 2

let () =
  let workload name =
    match List.assoc_opt name workloads with Some w -> w | None -> usage ()
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  match Array.to_list Sys.argv with
  | _ :: "child" :: [ kind; name; seed; n; seconds; trace; trace_file; spawn_ns ] ->
    let w = workload name in
    let spawn_ns = Int64.of_string spawn_ns in
    let seed = int seed in
    let instance = (shuffled ~seed family_size).(int n mod family_size) in
    Span.set_enabled (trace = "1");
    (match kind, w with
     | "setup", Serve_mix -> Serve.setup ~spawn_ns
     | "pass", Serve_mix ->
       Serve.pass ~seed ~seconds:(float_of_int (int seconds)) ~trace_file ~spawn_ns
     | "pass", _ -> batch_pass w ~instance ~trace_file ~spawn_ns
     | _ -> usage ())
  | [ _; "reference" ] -> print_references ()
  | _ :: "run" :: args ->
    let rec opts acc = function
      | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        opts ((key, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = opts [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let name = get "--workload" in
    let seconds = int (get "--seconds") in
    let trace = get "--trace" in
    if seconds < 1 || (trace <> "0" && trace <> "1") then usage ();
    run (workload name) name ~seed:(int (get "--seed")) ~seconds ~trace:(trace = "1")
  | _ -> usage ()
