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
open Dagmap_circuits
open Dagmap_retime
open Dagmap_super
open Dagmap_obs
open Dagmap_serve

let named_circuits () =
  [ ("c432", Iscas_like.c432_like);
    ("c880", Iscas_like.c880_like);
    ("c1355", Iscas_like.c1355_like);
    ("c1908", Iscas_like.c1908_like);
    ("c2670", Iscas_like.c2670_like);
    ("c3540", Iscas_like.c3540_like);
    ("c5315", Iscas_like.c5315_like);
    ("c6288", Iscas_like.c6288_like);
    ("c7552", Iscas_like.c7552_like);
    ("adder16", fun () -> Generators.ripple_adder 16);
    ("adder32", fun () -> Generators.carry_lookahead_adder 32);
    ("ks32", fun () -> Generators.kogge_stone_adder 32);
    ("wmult16", fun () -> Generators.wallace_multiplier 16);
    ("bshift64", fun () -> Generators.barrel_shifter 64);
    ("mult8", fun () -> Generators.array_multiplier 8);
    ("mult16", fun () -> Generators.array_multiplier 16);
    ("alu16", fun () -> Generators.alu 16);
    ("parity64", fun () -> Generators.parity 64);
    ("lfsr16", fun () -> Generators.lfsr 16);
    ("pparity32", fun () -> Generators.pipelined_parity 32 4) ]

(* Sized generator specs: "chain:<n>" and "soc:<n>[:seed]". Checked
   before the file-system fallback, so the huge-tier workloads are
   reachable from every subcommand without writing a BLIF first. *)
let generated_circuit spec =
  let size what s =
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> failwith (Printf.sprintf "bad %s in circuit spec %S" what spec)
  in
  match String.split_on_char ':' spec with
  | [ "chain"; n ] -> Some (Generators.nand_chain (size "length" n))
  | [ "soc"; n ] -> Some (Generators.synthetic_soc ~nodes:(size "size" n) ())
  | [ "soc"; n; seed ] ->
    Some
      (Generators.synthetic_soc ~seed:(size "seed" seed)
         ~nodes:(size "size" n) ())
  | _ -> None

let load_circuit ?(stream = false) spec =
  match List.assoc_opt spec (named_circuits ()) with
  | Some f -> f ()
  | None ->
    (match generated_circuit spec with
     | Some net -> net
     | None ->
       if Sys.file_exists spec then
         if stream then Dagmap_blif.Blif_stream.read_file spec
         else Dagmap_blif.Blif.read_file spec
       else
         failwith
           (Printf.sprintf
              "unknown circuit %S (not a named benchmark, not chain:<n> or \
               soc:<n>[:seed], not a file)"
              spec))

(* Every subject node is an INV or a NAND2 of other nodes, so a
   library that cannot cover those two bare shapes leaves some node
   unmappable. The built-in libraries all can; a genlib file is
   checked here, on the one path every command loads it through. *)
let covers_inv_and_nand2 lib =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" and y = Subject.Builder.pi b "y" in
  Subject.Builder.output b "inv" (Subject.Builder.inv b x);
  Subject.Builder.output b "nand2" (Subject.Builder.nand b x y);
  let g = Subject.Builder.finish b in
  match Mapper.map Mapper.Dag (Matchdb.prepare lib) g with
  | _ -> true
  | exception Mapper.Unmappable _ -> false

let load_library spec =
  match Libraries.by_name spec with
  | Some lib -> lib
  | None ->
    if Sys.file_exists spec then begin
      let lib =
        Libraries.make (Filename.basename spec) (Genlib_parser.parse_file spec)
      in
      if not (covers_inv_and_nand2 lib) then
        failwith
          (Printf.sprintf
             "library %s cannot cover a bare INV and NAND2 (it needs an \
              inverter and a 2-input NAND)"
             spec);
      lib
    end
    else
      failwith
        (Printf.sprintf "unknown library %S (try %s, or a genlib file)" spec
           (String.concat "/" Libraries.names))

type any_mode = Pattern_mode of Mapper.mode | Cut_mode

let resolve_jobs = function
  | Some 0 -> Parmap.recommended_jobs ()
  | Some j when j >= 1 -> j
  | Some j -> failwith (Printf.sprintf "--jobs %d: want >= 1 (0 = auto)" j)
  | None -> 1

let mode_of_string = function
  | "tree" -> Pattern_mode Mapper.Tree
  | "dag" -> Pattern_mode Mapper.Dag
  | "dag-extended" -> Pattern_mode Mapper.Dag_extended
  | "cut" -> Cut_mode
  | m -> failwith (Printf.sprintf "unknown mode %S (tree/dag/dag-extended/cut)" m)

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

(* Cut-mode per-node budget the CLI defaults to: on one core the
   wall-clock cost is linear in the budget, and 8 priority cuts per
   node is the classic sweet spot (the bench sweeps the trade-off). *)
let default_cut_priority = 8

let run_map circuit lib_spec super_file mode_s opt recover buffer out_file verilog_file show_path verify jobs priority show_stats trace_out metrics_json arena stream =
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
  let net = load_circuit ~stream circuit in
  let net =
    if opt then begin
      let optimized, stats = Dagmap_opt.Netopt.optimize net in
      Format.printf "cleanup: %a@." Dagmap_opt.Netopt.pp_stats stats;
      optimized
    end
    else net
  in
  let lib = load_library lib_spec in
  let lib =
    match super_file with
    | None -> lib
    | Some path ->
      let sgl = Superlib.read_file path in
      let augmented = Superlib.augment lib sgl in
      Printf.printf "superlib %s: +%d supergates (base %s, bounds depth=%d)\n"
        path
        (List.length sgl.Superlib.supergates)
        sgl.Superlib.base_name sgl.Superlib.bounds.Superenum.depth;
      augmented
  in
  let db = Matchdb.prepare lib in
  let mode = mode_of_string mode_s in
  let sg = Subject.of_network net in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats sg);
  Printf.printf "library %s: %d gates, %d patterns\n" lib.Libraries.lib_name
    (List.length lib.Libraries.gates)
    (List.length lib.Libraries.patterns);
  let jobs = resolve_jobs jobs in
  let t0 = Clock.now () in
  let mode_name, nl, pattern_result, par_stats =
    let a = Arena.of_subject sg in
    if arena then Printf.printf "%s\n" (Arena.stats a);
    match mode with
    | Pattern_mode m ->
      let result = Mapper.map_arena ~jobs ~subject:sg m db a in
      ( Mapper.mode_name m,
        result.Mapper.netlist,
        Some (m, result),
        if jobs > 1 then Some result.Mapper.par else None )
    | Cut_mode ->
      let r, par =
        Dagmap_cutmap.Cut_mapper.map_arena ~jobs ~priority ~subject:sg
          (Matchdb.boolean db) a
      in
      Printf.printf
        "cut: %d priority cuts/node, %d nodes matched, %d matches evaluated\n"
        priority r.Dagmap_cutmap.Cut_mapper.matched_nodes
        r.Dagmap_cutmap.Cut_mapper.matches_evaluated;
      ("cut", r.Dagmap_cutmap.Cut_mapper.netlist, None, Some par)
  in
  let dt = Clock.now () -. t0 in
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
           ("mode", Json.String mode_name);
           ("jobs", Json.Int jobs);
           ("metrics", Metrics.to_json ()) ]
     in
     let oc = open_out path in
     output_string oc (Json.to_string ~pretty:true doc);
     output_char oc '\n';
     close_out oc;
     Printf.printf "wrote %s\n" path);
  flushed := true;
  Printf.printf "%s mapping: delay=%.2f area=%.0f gates=%d duplicated=%d (%.2fs)\n"
    mode_name (Netlist.delay nl) (Netlist.area nl)
    (Netlist.num_gates nl) (Netlist.duplication nl) dt;
  if show_stats then begin
    match pattern_result with
    | Some (_, result) ->
      print_mapper_stats result.Mapper.run par_stats
    | None -> Option.iter print_par_stats par_stats
  end;
  let nl =
    match recover, pattern_result with
    | true, Some (m, result) ->
      let recovered = Area_recovery.recover db m sg result in
      Printf.printf "area recovery: delay=%.2f area=%.0f gates=%d\n"
        (Netlist.delay recovered) (Netlist.area recovered)
        (Netlist.num_gates recovered);
      recovered
    | true, None ->
      Printf.printf "area recovery: only available for pattern modes\n";
      nl
    | false, _ -> nl
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
    let n_inputs = List.length (Subject.pi_ids sg) in
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
  let net = load_circuit circuit in
  let lib = load_library lib_spec in
  let lib =
    match super_file with
    | None -> lib
    | Some path -> Superlib.augment lib (Superlib.read_file path)
  in
  let db = Matchdb.prepare lib in
  let mode = mode_of_string mode_s in
  let jobs = resolve_jobs jobs in
  let sg = Subject.of_network net in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats sg);
  let mode_name, nl, predicted =
    match mode with
    | Pattern_mode m ->
      let result = Mapper.map ~jobs m db sg in
      ( Mapper.mode_name m,
        result.Mapper.netlist,
        Mapper.predicted_arrivals result )
    | Cut_mode ->
      let r, _ =
        Dagmap_cutmap.Cut_mapper.map_arena ~jobs
          ~priority:default_cut_priority ~subject:sg (Matchdb.boolean db)
          (Arena.of_subject sg)
      in
      ( "cut",
        r.Dagmap_cutmap.Cut_mapper.netlist,
        Dagmap_cutmap.Cut_mapper.predicted_arrivals r )
  in
  Printf.printf "%s mapping: delay=%.2f area=%.0f gates=%d\n" mode_name
    (Netlist.delay nl) (Netlist.area nl) (Netlist.num_gates nl);
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
    section "delay" (Check.delay ~predicted nl);
    section "functional" (Check.functional sg nl)
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
  let base = load_library lib_spec in
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
  let base = load_library lib_spec in
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
  let net = load_circuit circuit in
  let sg = Subject.of_network net in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats sg);
  let t0 = Clock.now () in
  let cover = Flowmap.map ~k sg in
  let dt = Clock.now () -. t0 in
  Printf.printf "FlowMap k=%d: depth=%d luts=%d (%.2fs)\n" k
    (Flowmap.depth cover) (Flowmap.num_luts cover) dt;
  (match out_file with
   | None -> ()
   | Some path ->
     let lut_net = Flowmap.to_network cover in
     let oc = open_out path in
     output_string oc (Dagmap_blif.Blif.write_network lut_net);
     close_out oc;
     Printf.printf "wrote %s\n" path);
  if verify then begin
    let n_inputs = List.length (Subject.pi_ids sg) in
    let verdict =
      Equiv.compare_sims ~n_inputs (Simulate.subject sg)
        (fun words ->
          (* Bit-level fallback: FlowMap eval is bool-based. *)
          let lanes = Array.make 64 [] in
          for lane = 0 to 63 do
            let asg =
              Array.map
                (fun w ->
                  Int64.logand (Int64.shift_right_logical w lane) 1L <> 0L)
                words
            in
            lanes.(lane) <- Flowmap.eval cover asg
          done;
          List.mapi
            (fun _ (name, _) ->
              let w = ref 0L in
              for lane = 0 to 63 do
                if List.assoc name lanes.(lane) then
                  w := Int64.logor !w (Int64.shift_left 1L lane)
              done;
              (name, !w))
            lanes.(0))
    in
    Format.printf "equivalence: %a@." Equiv.pp_verdict verdict;
    if not (Equiv.is_equivalent verdict) then exit 2
  end

(* ------------------------------------------------------------------ *)
(* retime                                                              *)
(* ------------------------------------------------------------------ *)

let run_retime circuit lib_spec mode_s =
  let net = load_circuit circuit in
  if Network.latches net = [] then
    failwith "retime requires a sequential circuit (try lfsr16 or pparity32)";
  let lib = load_library lib_spec in
  let db = Matchdb.prepare lib in
  let mode =
    match mode_of_string mode_s with
    | Pattern_mode m -> m
    | Cut_mode -> failwith "retime supports pattern modes only"
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
  let net = load_circuit circuit in
  let lib = load_library lib_spec in
  let db = Matchdb.prepare lib in
  let bdb = Matchdb.boolean db in
  let sg = Subject.of_network net in
  Printf.printf "circuit %s: %s\n" circuit (Subject.stats sg);
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
    (fun mode ->
      let t0 = Clock.now () in
      let r = Mapper.map mode db sg in
      let dt = Clock.now () -. t0 in
      report (Mapper.mode_name mode) r.Mapper.netlist dt;
      if mode = Mapper.Dag then begin
        let t1 = Clock.now () in
        let recovered = Area_recovery.recover db mode sg r in
        report "dag+recover" recovered (Clock.now () -. t1)
      end)
    [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ];
  List.iter
    (fun priority ->
      let t0 = Clock.now () in
      let rc = Dagmap_cutmap.Cut_mapper.map ~priority bdb sg in
      report
        (Printf.sprintf "cut p=%d" priority)
        rc.Dagmap_cutmap.Cut_mapper.netlist
        (Clock.now () -. t0))
    [ default_cut_priority; 50 ]

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
      let sg = Subject.of_network net in
      Printf.printf "%-10s %s | %s\n" name (Network.stats net)
        (Subject.stats sg))
    (named_circuits ())

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
          let l = load_library s in
          (l.Libraries.lib_name, l))
        specs
  in
  let supered =
    List.map
      (fun path ->
        let sgl = Superlib.read_file path in
        let base_lib =
          match List.assoc_opt sgl.Superlib.base_name base with
          | Some l -> l
          | None -> load_library sgl.Superlib.base_name
        in
        (sgl.Superlib.base_name ^ "+super", Superlib.augment base_lib sgl))
      supers
  in
  Metrics.reset_all ();
  let srv =
    Server.create
      { Server.socket_path = socket;
        jobs = resolve_jobs (Some jobs);
        queue_max = queue;
        libraries = base @ supered;
        resolve_circuit = Some (fun spec -> load_circuit spec);
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
    & info [] ~docv:"CIRCUIT" ~doc:"Named benchmark or BLIF file.")

let lib_arg =
  Arg.(
    value & opt string "lib2"
    & info [ "l"; "lib" ] ~docv:"LIB"
        ~doc:"Gate library: lib2, 44-1, 44-3, minimal, or a genlib file.")

let mode_arg =
  Arg.(
    value & opt string "dag"
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"tree, dag, or dag-extended.")

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
      & opt int default_cut_priority
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
          ~doc:"Print labeling statistics (timings, matcher work, domains).")
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
  let arena =
    Arg.(
      value & flag
      & info [ "arena" ]
          ~doc:
            "Print the flat arena's statistics. Every mode maps on the \
             arena.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Parse BLIF circuit files with the streaming reader \
             (constant-memory line handling; identical networks and \
             diagnostics to the default reader).")
  in
  let term =
    Term.(
      ret
        (const (fun c l sf m op r b o vf p v j pr st tr mj ar sr ->
             wrap (fun () ->
                 run_map c l sf m op r b o vf p v j pr st tr mj ar sr))
        $ circuit_arg $ lib_arg $ super_file $ mode_arg $ opt $ recover
        $ buffer $ out_file $ verilog_file $ show_path $ verify $ jobs
        $ priority $ show_stats $ trace_out $ metrics_json $ arena $ stream))
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
          ~doc:"Server-side circuit spec (named benchmark, chain:<n>, ...).")
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
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"tree, dag, or dag-extended.")
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
