(* techmap: command-line driver for the DAG-covering technology
   mapper. Subcommands: map, fpga, retime, libs, circuits, and the
   serve/client pair for the techmapd daemon. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_timing
open Dagmap_flowmap
open Dagmap_sim
open Dagmap_retime
open Dagmap_super
open Dagmap_obs
open Dagmap_flow
open Dagmap_serve

let resolve_jobs = function
  | Some 0 -> Parmap.recommended_jobs ()
  | Some j when j >= 1 -> j
  | Some j -> failwith (Printf.sprintf "--jobs %d: want >= 1 (0 = auto)" j)
  | None -> 1

(* ------------------------------------------------------------------ *)
(* map                                                                 *)
(* ------------------------------------------------------------------ *)

let print_par_stats (p : Parmap.par_stats) =
  Printf.printf "stats: %d domains, %d levels (widest %d nodes)\n"
    p.Parmap.domains p.Parmap.levels p.Parmap.widest_level;
  Printf.printf "stats: %d levels ran parallel, %d work-steal chunks claimed\n"
    p.Parmap.parallel_levels p.Parmap.chunks;
  let t = p.Parmap.level_seconds in
  let slowest = ref 0 in
  Array.iteri (fun i dt -> if dt > t.(!slowest) then slowest := i) t;
  Printf.printf "stats: slowest level %d at %.4fs of %.4fs total sweep time\n"
    !slowest t.(!slowest)
    (Array.fold_left ( +. ) 0.0 t)

let print_mapper_stats (run : Mapper.stats) (par : Parmap.par_stats option) =
  Printf.printf
    "stats: label %.3fs, cover %.3fs, %d matches tried, %d patterns tried\n"
    run.Mapper.label_seconds run.Mapper.cover_seconds run.Mapper.matches_tried
    run.Mapper.patterns_tried;
  if run.Mapper.super_matches_tried > 0 || run.Mapper.super_gates_used > 0 then
    Printf.printf
      "stats: supergates: %d matches tried, %d instances in cover\n"
      run.Mapper.super_matches_tried run.Mapper.super_gates_used;
  Option.iter print_par_stats par

let run_map circuit lib_spec super_file mode_s opt recover buffer out_file
    verilog_file show_path verify jobs priority show_stats trace_out
    metrics_json =
  if trace_out <> None then begin
    Span.reset ();
    Span.set_enabled true
  end;
  if metrics_json <> None then Metrics.reset_all ();
  (* A batch run killed by SIGINT/SIGTERM still flushes its
     observability output: these hooks run from the handler installed
     in main before the process exits. [flushed] keeps a late signal
     from clobbering output already written normally. *)
  let flushed = ref false in
  Option.iter
    (fun path ->
      Signals.add_cleanup (fun () ->
          if not !flushed then begin
            Span.write_chrome path;
            Printf.eprintf "techmap: interrupted; partial trace in %s\n%!" path
          end))
    trace_out;
  Option.iter
    (fun path ->
      Signals.add_cleanup (fun () ->
          if !flushed then ()
          else
          let doc =
            Json.Obj
              [ ("generated", Json.String (Clock.stamp ()));
                ("circuit", Json.String circuit);
                ("interrupted", Json.Bool true);
                ("metrics", Metrics.to_json ()) ]
          in
          let oc = open_out path in
          output_string oc (Json.to_string ~pretty:true doc);
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "techmap: interrupted; partial metrics in %s\n%!" path))
    metrics_json;
  let net = Flow.load_circuit circuit in
  let net =
    if opt then begin
      let optimized, stats = Dagmap_opt.Netopt.optimize net in
      Format.printf "cleanup: %a@." Dagmap_opt.Netopt.pp_stats stats;
      optimized
    end
    else net
  in
  let lib = Flow.load_library lib_spec in
  let lib =
    match super_file with
    | None -> lib
    | Some path ->
      let sgl, augmented = Flow.load_super ~base:(fun _ -> lib) path in
      Printf.printf "superlib %s: +%d supergates (base %s, bounds depth=%d)\n"
        path
        (List.length sgl.Superlib.supergates)
        sgl.Superlib.base_name sgl.Superlib.bounds.Superenum.depth;
      augmented
  in
  let db = Matchdb.prepare lib in
  let engine = Flow.engine_of_string ~priority mode_s in
  let sg = Flow.decompose net in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats sg);
  Printf.printf "library %s: %d gates, %d patterns\n" lib.Libraries.lib_name
    (List.length lib.Libraries.gates)
    (List.length lib.Libraries.patterns);
  let jobs = resolve_jobs jobs in
  let t0 = Clock.now () in
  let r = Flow.map ~jobs engine db sg in
  let dt = Clock.now () -. t0 in
  (match r.Flow.run with
   | Flow.Cut_run c ->
     Printf.printf
       "cut: %d priority cuts/node, %d nodes matched, %d matches evaluated\n"
       priority c.Dagmap_cutmap.Cut_mapper.matched_nodes
       c.Dagmap_cutmap.Cut_mapper.matches_evaluated
   | Flow.Pattern_run _ -> ());
  (match trace_out with
   | None -> ()
   | Some path ->
     Span.write_chrome path;
     Span.set_enabled false;
     Printf.printf "wrote %s (%d trace events)\n" path
       (List.length (Span.events ())));
  (match metrics_json with
   | None -> ()
   | Some path ->
     let doc =
       Json.Obj
         [ ("generated", Json.String (Clock.stamp ()));
           ("circuit", Json.String circuit);
           ("library", Json.String lib.Libraries.lib_name);
           ("mode", Json.String (Flow.engine_name engine));
           ("jobs", Json.Int jobs);
           ("metrics", Metrics.to_json ()) ]
     in
     let oc = open_out path in
     output_string oc (Json.to_string ~pretty:true doc);
     output_char oc '\n';
     close_out oc;
     Printf.printf "wrote %s\n" path);
  flushed := true;
  let nl = r.Flow.netlist in
  Printf.printf "%s mapping: delay=%.2f area=%.0f gates=%d duplicated=%d (%.2fs)\n"
    (Flow.engine_name engine) (Netlist.delay nl) (Netlist.area nl)
    (Netlist.num_gates nl) (Netlist.duplication nl) dt;
  if show_stats then begin
    Printf.printf "%s\n" (Subject.arena_stats sg);
    match r.Flow.run with
    | Flow.Pattern_run p ->
      print_mapper_stats p.Mapper.run
        (if jobs > 1 then Some r.Flow.par else None)
    | Flow.Cut_run _ -> print_par_stats r.Flow.par
  end;
  let nl =
    match recover, engine, r.Flow.run with
    | true, Flow.Pattern m, Flow.Pattern_run p ->
      let recovered = Area_recovery.recover db m sg p in
      Printf.printf "area recovery: delay=%.2f area=%.0f gates=%d\n"
        (Netlist.delay recovered) (Netlist.area recovered)
        (Netlist.num_gates recovered);
      recovered
    | true, _, _ ->
      Printf.printf "area recovery: only available for pattern modes\n";
      nl
    | false, _, _ -> nl
  in
  let nl =
    match buffer with
    | None -> nl
    | Some max_fanout ->
      let buffered = Buffering.buffer_fanouts lib ~max_fanout nl in
      Printf.printf
        "buffered to fanout<=%d: gates=%d loaded-delay %.2f -> %.2f\n"
        max_fanout (Netlist.num_gates buffered)
        (Buffering.loaded_delay nl) (Buffering.loaded_delay buffered);
      buffered
  in
  if show_path then begin
    let report = Sta.analyze nl in
    Format.printf "%a@?" Sta.pp_path report
  end;
  if verify then begin
    let n_inputs = sg.Subject.num_pis in
    let verdict =
      Equiv.compare_sims ~n_inputs (Simulate.subject sg) (Simulate.netlist nl)
    in
    Format.printf "equivalence: %a@." Equiv.pp_verdict verdict;
    if not (Equiv.is_equivalent verdict) then exit 2
  end;
  (match out_file with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Dagmap_blif.Blif.write_netlist nl);
     close_out oc;
     Printf.printf "wrote %s\n" path);
  match verilog_file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Dagmap_blif.Verilog.write_netlist nl);
    close_out oc;
    Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* check / fuzz                                                        *)
(* ------------------------------------------------------------------ *)

open Dagmap_check

let run_check circuit lib_spec super_file mode_s jobs =
  let net = Flow.load_circuit circuit in
  let db = Matchdb.prepare (Flow.load_library ?super:super_file lib_spec) in
  let engine = Flow.engine_of_string mode_s in
  let jobs = resolve_jobs jobs in
  let g = Flow.decompose net in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats g);
  let r = Flow.map ~jobs engine db g in
  let nl = r.Flow.netlist in
  Printf.printf "%s mapping: delay=%.2f area=%.0f gates=%d\n"
    (Flow.engine_name engine) (Netlist.delay nl) (Netlist.area nl)
    (Netlist.num_gates nl);
  let failed = ref false in
  let section name issues =
    match issues with
    | [] -> Printf.printf "%-10s ok\n" name
    | issues ->
      failed := true;
      List.iter
        (fun i ->
          Printf.printf "%-10s %s\n" name
            (Format.asprintf "%a" Check.pp_issue i))
        issues
  in
  let s = Check.structural nl in
  section "structural" s;
  if s = [] then begin
    (* Timing and simulation are undefined on a malformed netlist. *)
    section "delay" (Check.delay ~predicted:r.Flow.predicted nl);
    section "functional" (Check.functional g nl)
  end
  else Printf.printf "delay/functional audits skipped (structural failure)\n";
  if !failed then exit 2

let fuzz_super_bounds =
  { Superenum.default_bounds with
    Superenum.depth = 2;
    max_pins = 4;
    max_size = 3;
    max_gates = 48 }

let run_fuzz count seed nodes lib_spec no_super max_failures repro_dir
    inject verbose =
  let base = Flow.load_library lib_spec in
  let libs =
    if no_super then [ ("base", base) ]
    else begin
      let sgl, _ = Superlib.make ~bounds:fuzz_super_bounds ~jobs:2 base in
      Printf.printf "fuzz: +%d supergates over %s for the super cases\n"
        (List.length sgl.Superlib.supergates)
        base.Libraries.lib_name;
      [ ("base", base); ("super", Superlib.augment base sgl) ]
    end
  in
  let cfg =
    { (Fuzz.default_config base) with
      Fuzz.count; seed; max_nodes = nodes; libs; max_failures }
  in
  if inject then Mapper.test_pin_delay_skew := 1.0;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Mapper.test_pin_delay_skew := 0.0)
      (fun () ->
        Fuzz.run
          ~log:(fun line ->
            if verbose || contains line "FAIL" then print_endline line)
          cfg)
  in
  Printf.printf
    "fuzz: %d circuits, %d (circuit, config) cases audited in %.2fs (%.1f \
     cases/s)\n"
    outcome.Fuzz.circuits outcome.Fuzz.cases outcome.Fuzz.seconds
    outcome.Fuzz.cases_per_second;
  match outcome.Fuzz.failures with
  | [] -> Printf.printf "fuzz: all audits passed\n"
  | failures ->
    List.iteri
      (fun k f ->
        let path =
          Filename.concat repro_dir
            (Printf.sprintf "fuzz_repro_%d_%d.blif" cfg.Fuzz.seed k)
        in
        Fuzz.write_repro path f;
        Printf.printf
          "fuzz: circuit %d under %s FAILED (shrunk %d -> %d nodes), repro \
           %s\n"
          f.Fuzz.circuit f.Fuzz.case_name f.Fuzz.original_nodes
          f.Fuzz.shrunk_nodes path;
        List.iter
          (fun i ->
            Printf.printf "  %s\n" (Format.asprintf "%a" Check.pp_issue i))
          f.Fuzz.issues)
      failures;
    exit 2

(* ------------------------------------------------------------------ *)
(* superlib                                                            *)
(* ------------------------------------------------------------------ *)

let run_superlib lib_spec out depth pins size cap fusion class_cap jobs
    show_stats =
  let base = Flow.load_library lib_spec in
  let bounds =
    { Superenum.depth;
      max_pins = pins;
      max_size = size;
      max_gates = cap;
      fusion;
      class_cap }
  in
  let jobs = resolve_jobs jobs in
  let sgl, stats = Superlib.make ~bounds ~jobs base in
  Superlib.write_file out sgl;
  Printf.printf "superlib: %d supergates from %s (%d base gates) -> %s\n"
    stats.Superenum.emitted base.Libraries.lib_name
    (List.length base.Libraries.gates)
    out;
  if show_stats then
    Printf.printf
      "stats: %d compositions considered, %d NPN classes, %.2fs on %d domain%s\n"
      stats.Superenum.considered stats.Superenum.distinct_classes
      stats.Superenum.seconds jobs
      (if jobs = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* fpga                                                                *)
(* ------------------------------------------------------------------ *)

let run_fpga circuit k out_file verify =
  let sg = Flow.decompose (Flow.load_circuit circuit) in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats sg);
  let t0 = Clock.now () in
  let cover = Flowmap.map ~k sg in
  let dt = Clock.now () -. t0 in
  Printf.printf "FlowMap k=%d: depth=%d luts=%d (%.2fs)\n" k
    (Flowmap.depth cover) (Flowmap.num_luts cover) dt;
  (* The LUT network -o writes is the one --verify simulates. *)
  let lut_net = Flowmap.to_network cover in
  (match out_file with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Dagmap_blif.Blif.write_network lut_net);
     close_out oc;
     Printf.printf "wrote %s\n" path);
  if verify then begin
    let n_inputs = sg.Subject.num_pis in
    let verdict =
      Equiv.compare_sims ~n_inputs (Simulate.subject sg)
        (Simulate.network lut_net)
    in
    Format.printf "equivalence: %a@." Equiv.pp_verdict verdict;
    if not (Equiv.is_equivalent verdict) then exit 2
  end

(* ------------------------------------------------------------------ *)
(* retime                                                              *)
(* ------------------------------------------------------------------ *)

let run_retime circuit lib_spec mode_s =
  let net = Flow.load_circuit circuit in
  if Network.latches net = [] then
    failwith "retime requires a sequential circuit (try lfsr16 or pparity32)";
  let db = Matchdb.prepare (Flow.load_library lib_spec) in
  let mode =
    match Flow.engine_of_string mode_s with
    | Flow.Pattern m -> m
    | Flow.Cut _ -> failwith "retime supports pattern modes only"
  in
  let r = Seq_map.run db mode net in
  Printf.printf "%s: mapped comb delay %.2f\n" circuit r.Seq_map.comb_delay;
  Printf.printf "cycle time: %.2f before retiming, %.2f after\n"
    r.Seq_map.period_before r.Seq_map.period_after;
  Printf.printf "latches: %d before, %d after\n" r.Seq_map.latches_before
    r.Seq_map.latches_after

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let run_compare circuit lib_spec =
  let g = Flow.decompose (Flow.load_circuit circuit) in
  let lib = Flow.load_library lib_spec in
  let db = Matchdb.prepare lib in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats g);
  Printf.printf "library %s: %d gates\n\n" lib.Libraries.lib_name
    (List.length lib.Libraries.gates);
  Printf.printf "%-13s | %8s | %10s | %6s | %5s | %7s\n" "engine" "delay"
    "area" "gates" "dup" "seconds";
  let report name nl dt =
    Printf.printf "%-13s | %8.2f | %10.0f | %6d | %5d | %7.2f\n" name
      (Netlist.delay nl) (Netlist.area nl) (Netlist.num_gates nl)
      (Netlist.duplication nl) dt
  in
  List.iter
    (fun engine ->
      let t0 = Clock.now () in
      let r = Flow.map engine db g in
      let dt = Clock.now () -. t0 in
      (match engine with
       | Flow.Cut { priority } ->
         report (Printf.sprintf "cut p=%d" priority) r.Flow.netlist dt
       | Flow.Pattern _ -> report (Flow.engine_name engine) r.Flow.netlist dt);
      match r.Flow.run with
      | Flow.Pattern_run p when engine = Flow.Pattern Mapper.Dag ->
        let t1 = Clock.now () in
        let recovered = Area_recovery.recover db Mapper.Dag g p in
        report "dag+recover" recovered (Clock.now () -. t1)
      | Flow.Pattern_run _ | Flow.Cut_run _ -> ())
    [ Flow.Pattern Mapper.Tree;
      Flow.Pattern Mapper.Dag;
      Flow.Pattern Mapper.Dag_extended;
      Flow.Cut { priority = Flow.default_cut_priority };
      Flow.Cut { priority = 50 } ]

(* ------------------------------------------------------------------ *)
(* libs / circuits listings                                            *)
(* ------------------------------------------------------------------ *)

let run_libs dump =
  List.iter
    (fun name ->
      match Libraries.by_name name with
      | None -> ()
      | Some lib ->
        Printf.printf "%-8s %4d gates %5d patterns %6d pattern nodes\n" name
          (List.length lib.Libraries.gates)
          (List.length lib.Libraries.patterns)
          (Libraries.num_pattern_nodes lib);
        if dump then
          print_string (Genlib_parser.to_string lib.Libraries.gates))
    Libraries.names

let run_circuits () =
  List.iter
    (fun (name, f) ->
      let net = f () in
      Printf.printf "%-10s %s | %s\n" name (Network.stats net)
        (Subject.stats (Flow.decompose net)))
    Flow.named_circuits

(* ------------------------------------------------------------------ *)
(* serve / client (the techmapd daemon)                                *)
(* ------------------------------------------------------------------ *)

let write_json_file path doc =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc

let run_serve socket libs supers jobs queue metrics_json quiet io_timeout
    idle_timeout job_budget faults_spec =
  let faults =
    match Faultplan.parse faults_spec with
    | Ok f -> f
    | Error m -> failwith ("--faults: " ^ m)
  in
  let base =
    match libs with
    | [] ->
      List.filter_map
        (fun n -> Option.map (fun l -> (n, l)) (Libraries.by_name n))
        Libraries.names
    | specs ->
      List.map
        (fun s ->
          let l = Flow.load_library s in
          (l.Libraries.lib_name, l))
        specs
  in
  let base_named name =
    match List.assoc_opt name base with
    | Some l -> l
    | None -> Flow.load_library name
  in
  let supered =
    List.map
      (fun path ->
        let sgl, lib = Flow.load_super ~base:base_named path in
        (sgl.Superlib.base_name ^ "+super", lib))
      supers
  in
  Metrics.reset_all ();
  let srv =
    Server.create
      { Server.socket_path = socket;
        jobs = resolve_jobs (Some jobs);
        queue_max = queue;
        libraries = base @ supered;
        (* Specs only: a client names no file on this host. BLIF
           reaches the daemon as a request payload. *)
        resolve_circuit = Some Flow.circuit_of_spec;
        verbose = not quiet;
        io_timeout_s = io_timeout;
        idle_timeout_s = idle_timeout;
        job_budget_s = job_budget;
        faults }
  in
  (* SIGTERM/SIGINT become a graceful drain, not an exit: run returns
     only after in-flight jobs finish and every thread is joined. *)
  Signals.install (fun _ -> Server.stop srv);
  Server.run srv;
  (match metrics_json with
   | None -> ()
   | Some path ->
     write_json_file path
       (Json.Obj
          [ ("generated", Json.String (Clock.stamp ()));
            ("served", Json.Int (Server.requests_served srv));
            ("metrics", Metrics.to_json ()) ]);
     Printf.printf "wrote %s\n" path);
  Printf.printf "techmapd: drained after %d requests\n"
    (Server.requests_served srv)

let run_client socket verb_s id circuit blif_file lib mode audit reply_blif
    metrics timeout retries =
  let verb =
    match Proto.verb_of_string verb_s with
    | Some v -> v
    | None ->
      failwith
        (Printf.sprintf "unknown verb %S (ping/map/check/sta/stats/shutdown)"
           verb_s)
  in
  let payload =
    Option.map
      (fun path ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s)
      blif_file
  in
  let deadline_ms =
    (* The client-side timeout doubles as the request's end-to-end
       deadline, so the server stops working on it when we stop
       waiting for it. *)
    match verb with
    | Proto.Map | Proto.Check | Proto.Sta when timeout > 0.0 ->
      Some (int_of_float (timeout *. 1e3))
    | _ -> None
  in
  let req =
    { (Proto.request verb) with
      Proto.id;
      circuit;
      lib;
      mode;
      audit;
      want_blif = reply_blif;
      metrics;
      deadline_ms }
  in
  let reply =
    if retries > 1 then begin
      let s =
        Client.session ~timeout_s:timeout
          ~retry:{ Client.default_retry with Client.attempts = retries }
          socket
      in
      Fun.protect
        ~finally:(fun () -> Client.end_session s)
        (fun () ->
          match Client.call s ?payload req with
          | Ok j -> j
          | Error m -> failwith m)
    end
    else begin
      let c =
        try Client.connect ~timeout_s:timeout socket
        with Unix.Unix_error (e, _, _) ->
          failwith
            (Printf.sprintf "%s: %s (is techmapd running?)" socket
               (Unix.error_message e))
      in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          try Client.request c ?payload req
          with Client.Timeout ->
            failwith
              (Printf.sprintf "no reply within %.3gs (--timeout)" timeout))
    end
  in
  print_endline (Json.to_string reply);
  let status =
    Option.value ~default:"?"
      (Option.bind (Json.member "status" reply) Json.to_string_value)
  in
  match status with "ok" -> () | "busy" -> exit 3 | _ -> exit 2

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let circuit_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT"
        ~doc:"Named benchmark, chain:<n>, soc:<n>[:seed], or a BLIF file.")

let lib_arg =
  Arg.(
    value & opt string "lib2"
    & info [ "l"; "lib" ] ~docv:"LIB"
        ~doc:"Gate library: lib2, 44-1, 44-3, minimal, or a genlib file.")

let mode_arg =
  Arg.(
    value & opt string "dag"
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"tree, dag, dag-extended or cut.")

let wrap f =
  try `Ok (f ()) with
  | Failure m | Invalid_argument m -> `Error (false, m)
  | Genlib_parser.Syntax_error _ as e ->
    `Error (false, Genlib_parser.describe e)
  | Dagmap_blif.Blif.Parse_error _ as e ->
    `Error (false, Dagmap_blif.Blif.describe e)
  | Superlib.Format_error m -> `Error (false, m)
  | Mapper.Unmappable { description; _ } ->
    `Error (false, "unmappable: " ^ description)
  | Sys_error m -> `Error (false, m)

let map_cmd =
  let recover =
    Arg.(value & flag & info [ "recover-area" ] ~doc:"Run area recovery.")
  in
  let opt =
    Arg.(
      value & flag
      & info [ "opt" ] ~doc:"Clean the network before decomposition.")
  in
  let buffer =
    Arg.(
      value
      & opt (some int) None
      & info [ "buffer" ] ~docv:"K" ~doc:"Buffer fanouts above K.")
  in
  let out_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write mapped BLIF.")
  in
  let verilog_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "verilog" ] ~docv:"FILE" ~doc:"Write mapped Verilog.")
  in
  let show_path =
    Arg.(value & flag & info [ "path" ] ~doc:"Print the critical path.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Random-simulation check.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Label with N domains in parallel (0 = one per core). Results \
             are bit-identical to the sequential mapper.")
  in
  let priority =
    Arg.(
      value
      & opt int Flow.default_cut_priority
      & info [ "priority" ] ~docv:"P"
          ~doc:
            "Cut budget for $(b,--mode cut): keep the P best cuts per node \
             (ranked by realized arrival). Quality converges to the \
             structural mapper's as P grows; ignored by pattern modes.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print labeling statistics (timings, matcher work, domains) \
             and the flat arena's statistics.")
  in
  let super_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "super" ] ~docv:"FILE"
          ~doc:
            "Augment the library with the supergates of an .sglib file \
             (generated by $(b,techmap superlib) from the same base \
             library).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record phase spans (label, cover, per-level parallel work) \
             and write them as Chrome trace-event JSON — open in \
             chrome://tracing or Perfetto. Tracing never changes the \
             mapping result.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the observability counter/gauge/histogram registry \
             (phase timings, matcher work, work-steal chunks) as JSON \
             after mapping. The registry is reset first, so the file \
             covers exactly this run.")
  in
  let term =
    Term.(
      ret
        (const (fun c l sf m op r b o vf p v j pr st tr mj ->
             wrap (fun () -> run_map c l sf m op r b o vf p v j pr st tr mj))
        $ circuit_arg $ lib_arg $ super_file $ mode_arg $ opt $ recover
        $ buffer $ out_file $ verilog_file $ show_path $ verify $ jobs
        $ priority $ show_stats $ trace_out $ metrics_json))
  in
  Cmd.v (Cmd.info "map" ~doc:"Map a circuit onto a gate library.") term

let check_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Label with N domains in parallel (0 = one per core).")
  in
  let super_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "super" ] ~docv:"FILE"
          ~doc:"Augment the library with an .sglib supergate file.")
  in
  let term =
    Term.(
      ret
        (const (fun c l sf m j -> wrap (fun () -> run_check c l sf m j))
        $ circuit_arg $ lib_arg $ super_file $ mode_arg $ jobs))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Map a circuit and run the full verification layer on the result: \
          structural lint, per-output delay audit against the mapper's \
          predicted labels, and random-simulation equivalence. Exits 2 on \
          any audit failure.")
    term

let fuzz_cmd =
  let count =
    Arg.(
      value & opt int 25
      & info [ "count" ] ~docv:"N" ~doc:"Number of random circuits.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Base seed (deterministic sweep).")
  in
  let nodes =
    Arg.(
      value & opt int 60
      & info [ "nodes" ] ~docv:"K" ~doc:"Circuit sizes cycle below K nodes.")
  in
  let no_super =
    Arg.(
      value & flag
      & info [ "no-super" ]
          ~doc:
            "Skip the supergate-augmented library cases (by default a small \
             depth-2 supergate library is generated in-process).")
  in
  let max_failures =
    Arg.(
      value & opt int 4
      & info [ "max-failures" ] ~docv:"N"
          ~doc:"Stop after N failing cases have been shrunk.")
  in
  let repro_dir =
    Arg.(
      value & opt string "."
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Where to write fuzz_repro_*.blif files.")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-delay-bug" ]
          ~doc:
            "Testing hook: skew every pin delay seen by the labeling pass \
             by +1.0 so the delay audit must fail — proves the harness \
             catches and shrinks a labeling bug.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print one progress line per circuit.")
  in
  let term =
    Term.(
      ret
        (const (fun c s n l ns mf rd i v ->
             wrap (fun () -> run_fuzz c s n l ns mf rd i v))
        $ count $ seed $ nodes $ lib_arg $ no_super $ max_failures
        $ repro_dir $ inject $ verbose))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzz of the whole mapper: map seeded random \
          circuits under every mode x jobs x library \
          configuration, run the three audits on each result, and shrink \
          any failure to a minimal BLIF repro. Exits 2 when a failure is \
          found.")
    term

let superlib_cmd =
  let lib_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LIB"
          ~doc:"Base library: lib2, 44-1, 44-3, minimal, or a genlib file.")
  in
  let out_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the supergate library (.sglib).")
  in
  let depth =
    Arg.(
      value & opt int Superenum.default_bounds.Superenum.depth
      & info [ "depth" ] ~docv:"D" ~doc:"Max composition levels (>= 2).")
  in
  let pins =
    Arg.(
      value & opt int Superenum.default_bounds.Superenum.max_pins
      & info [ "pins" ] ~docv:"P" ~doc:"Max supergate pins (2..6).")
  in
  let size =
    Arg.(
      value & opt int Superenum.default_bounds.Superenum.max_size
      & info [ "size" ] ~docv:"S" ~doc:"Max member gates per supergate.")
  in
  let cap =
    Arg.(
      value & opt int Superenum.default_bounds.Superenum.max_gates
      & info [ "cap" ] ~docv:"N" ~doc:"Max supergates emitted.")
  in
  let fusion =
    Arg.(
      value & opt float Superenum.default_bounds.Superenum.fusion
      & info [ "fusion" ] ~docv:"F"
          ~doc:
            "Child-delay discount in (0,1]: a fused composition's leaf \
             delay is root delay + F * child delay. 1.0 makes supergates \
             purely additive (never faster than chaining).")
  in
  let class_cap =
    Arg.(
      value & opt int Superenum.default_bounds.Superenum.class_cap
      & info [ "class-cap" ] ~docv:"K"
          ~doc:"Max supergates kept per NPN class.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Enumerate with N domains (0 = one per core). Output bytes are \
             identical for every N.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print enumeration statistics.")
  in
  let term =
    Term.(
      ret
        (const (fun l o d p s c f k j st ->
             wrap (fun () -> run_superlib l o d p s c f k j st))
        $ lib_pos $ out_file $ depth $ pins $ size $ cap $ fusion $ class_cap
        $ jobs $ show_stats))
  in
  Cmd.v
    (Cmd.info "superlib"
       ~doc:
         "Generate a supergate library: enumerate bounded gate \
          compositions, deduplicate by NPN class keeping delay-dominant \
          representatives, and persist them as a checksummed .sglib file \
          for $(b,techmap map --super).")
    term

let fpga_cmd =
  let k_arg =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"LUT input count.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Random-simulation check.")
  in
  let out_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the LUT cover as BLIF.")
  in
  let term =
    Term.(
      ret
        (const (fun c k o v -> wrap (fun () -> run_fpga c k o v))
        $ circuit_arg $ k_arg $ out_file $ verify))
  in
  Cmd.v (Cmd.info "fpga" ~doc:"Depth-optimal k-LUT mapping (FlowMap).") term

let retime_cmd =
  let term =
    Term.(
      ret
        (const (fun c l m -> wrap (fun () -> run_retime c l m))
        $ circuit_arg $ lib_arg $ mode_arg))
  in
  Cmd.v
    (Cmd.info "retime" ~doc:"Map a sequential circuit and retime it.")
    term

let compare_cmd =
  let term =
    Term.(
      ret
        (const (fun c l -> wrap (fun () -> run_compare c l))
        $ circuit_arg $ lib_arg))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every mapping engine on one circuit.")
    term

let libs_cmd =
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Print genlib text.") in
  let term = Term.(ret (const (fun d -> wrap (fun () -> run_libs d)) $ dump)) in
  Cmd.v (Cmd.info "libs" ~doc:"List the built-in gate libraries.") term

let circuits_cmd =
  let term = Term.(ret (const (fun () -> wrap run_circuits) $ const ())) in
  Cmd.v (Cmd.info "circuits" ~doc:"List the named benchmark circuits.") term

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/techmapd.sock"
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let libs =
    Arg.(
      value & opt_all string []
      & info [ "l"; "lib" ] ~docv:"LIB"
          ~doc:
            "Load a library at startup (repeatable; first is the default \
             for requests that name none). With no $(b,--lib), every \
             built-in library is loaded.")
  in
  let supers =
    Arg.(
      value & opt_all string []
      & info [ "super" ] ~docv:"FILE"
          ~doc:
            "Load an .sglib supergate file (repeatable): its base library \
             is augmented and registered as $(i,base)+super.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains mapping requests in parallel (0 = one per core).")
  in
  let queue =
    Arg.(
      value & opt int 32
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "In-flight request cap (queued + running); past it the daemon \
             replies $(i,busy) instead of queueing.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the serve.* metrics registry (per-verb counters, \
             latency histogram) as JSON after the drain.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-lifecycle stderr lines.")
  in
  let io_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "io-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-read/-write progress bound once a request is in flight \
             (partial header, payload, reply). 0 disables.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reap connections with no request in progress after this long. \
             0 disables.")
  in
  let job_budget =
    Arg.(
      value & opt float 0.0
      & info [ "job-budget" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog wall budget per mapping job: past it the request \
             fails with $(i,watchdog_timeout) and the worker pool is \
             restarted (degraded inline service meanwhile). 0 disables.")
  in
  let faults =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Inject faults for chaos testing: comma-separated \
             $(i,crash_job:p), $(i,delay_job:ms:p), $(i,drop_conn:p), \
             $(i,garble_reply:p), $(i,stall_read:ms:p), $(i,seed:n).")
  in
  let term =
    Term.(
      ret
        (const (fun s l su j q mj qt iot idt jb f ->
             wrap (fun () -> run_serve s l su j q mj qt iot idt jb f))
        $ socket_arg $ libs $ supers $ jobs $ queue $ metrics_json $ quiet
        $ io_timeout $ idle_timeout $ job_budget $ faults))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run techmapd: a mapping-as-a-service daemon on a Unix socket. \
          Libraries and pattern databases load once; concurrent \
          map/check/sta/stats requests are scheduled onto a persistent \
          domain pool with bounded-queue backpressure. SIGTERM/SIGINT \
          drain gracefully.")
    term

let client_cmd =
  let verb_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB" ~doc:"ping, map, check, sta, stats or shutdown.")
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Client tag echoed in the reply.")
  in
  let circuit =
    Arg.(
      value
      & opt (some string) None
      & info [ "c"; "circuit" ] ~docv:"SPEC"
          ~doc:
            "Server-side circuit spec: a named benchmark, chain:<n> or \
             soc:<n>[:seed]. The daemon reads no files; ship a file with \
             $(b,--blif).")
  in
  let blif_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "blif" ] ~docv:"FILE" ~doc:"Ship this BLIF file as the payload.")
  in
  let lib =
    Arg.(
      value
      & opt (some string) None
      & info [ "l"; "lib" ] ~docv:"LIB" ~doc:"Library name loaded in the daemon.")
  in
  let mode =
    Arg.(
      value
      & opt (some string) None
      & info [ "m"; "mode" ] ~docv:"MODE"
          ~doc:"tree, dag, dag-extended, or cut (priority 8, one domain).")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ] ~doc:"Run the full lib/check audit server-side.")
  in
  let reply_blif =
    Arg.(
      value & flag
      & info [ "reply-blif" ] ~doc:"Include the mapped netlist BLIF in the reply.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Include the metrics registry (stats verb).")
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Give up if the exchange has not completed in this long; for \
             map/check/sta the value also rides along as the request's \
             $(i,deadline_ms) so the server abandons it too. 0 disables.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Total attempts: past 1, $(i,busy) replies and transient \
             transport failures are retried with jittered exponential \
             backoff.")
  in
  let term =
    Term.(
      ret
        (const (fun s v i c b l m a rb mt to_ rt ->
             wrap (fun () -> run_client s v i c b l m a rb mt to_ rt))
        $ socket_arg $ verb_arg $ id $ circuit $ blif_file $ lib $ mode
        $ audit $ reply_blif $ metrics $ timeout $ retries))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running techmapd and print its JSON reply. \
          Exit 0 on ok, 3 on busy, 2 on error.")
    term

let () =
  (* Interrupted batch runs flush trace/metrics output through the
     cleanup hooks; writes to vanished pipes fail with EPIPE instead
     of killing the process. The serve command replaces the handler
     with a graceful drain. *)
  Signals.ignore_sigpipe ();
  Signals.install_default ();
  let doc = "delay-optimal technology mapping by DAG covering" in
  let info = Cmd.info "techmap" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
          [ map_cmd; check_cmd; fuzz_cmd; superlib_cmd; fpga_cmd; retime_cmd;
            compare_cmd; libs_cmd; circuits_cmd; serve_cmd; client_cmd ]))
