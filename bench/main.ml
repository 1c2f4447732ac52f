(* Benchmark harness: regenerates every table and figure of
   Kukimoto/Brayton/Sawkar, "Delay-Optimal Technology Mapping by DAG
   Covering" (DAC 1998), on the synthetic stand-ins documented in
   DESIGN.md, plus the ablations DESIGN.md calls out. One Bechamel
   Test.make per table at the end measures mapper runtime.

   Run with:  dune exec bench/main.exe            (full harness)
              dune exec bench/main.exe -- quick   (skip Bechamel)   *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_sim
open Dagmap_circuits
open Dagmap_obs
open Dagmap_flow

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Tables 1-3: tree vs DAG mapping under the three libraries          *)
(* ------------------------------------------------------------------ *)

type row = {
  circuit : string;
  tree_delay : float;
  dag_delay : float;
  tree_area : float;
  dag_area : float;
  tree_cpu : float;
  dag_cpu : float;
  dag_dup : int;
  verified : bool;
}

let map_row db g circuit =
  let tree, tree_cpu = Clock.time (fun () -> Mapper.map Mapper.Tree db g) in
  let dag, dag_cpu = Clock.time (fun () -> Mapper.map Mapper.Dag db g) in
  let verified =
    let n_inputs = List.length (Subject.pi_ids g) in
    let sim_subject = Simulate.subject g in
    let ok r =
      Equiv.is_equivalent
        (Equiv.compare_sims ~rounds:4 ~n_inputs sim_subject
           (Simulate.netlist r.Mapper.netlist))
    in
    ok tree && ok dag
  in
  { circuit;
    tree_delay = Netlist.delay tree.Mapper.netlist;
    dag_delay = Netlist.delay dag.Mapper.netlist;
    tree_area = Netlist.area tree.Mapper.netlist;
    dag_area = Netlist.area dag.Mapper.netlist;
    tree_cpu;
    dag_cpu;
    dag_dup = Netlist.duplication dag.Mapper.netlist;
    verified }

let print_table rows =
  Printf.printf "%-8s | %8s %8s %6s | %9s %9s | %7s %7s | %5s %s\n" "circuit"
    "tree-d" "DAG-d" "ratio" "tree-area" "DAG-area" "tree-s" "DAG-s" "dup"
    "eq";
  Printf.printf "%s\n" (String.make 96 '-');
  List.iter
    (fun r ->
      Printf.printf
        "%-8s | %8.2f %8.2f %5.2fx | %9.0f %9.0f | %7.2f %7.2f | %5d %s\n"
        r.circuit r.tree_delay r.dag_delay
        (r.tree_delay /. r.dag_delay)
        r.tree_area r.dag_area r.tree_cpu r.dag_cpu r.dag_dup
        (if r.verified then "ok" else "FAIL"))
    rows;
  let geo =
    let product =
      List.fold_left (fun acc r -> acc *. (r.tree_delay /. r.dag_delay)) 1.0 rows
    in
    product ** (1.0 /. float_of_int (List.length rows))
  in
  Printf.printf "geometric-mean delay ratio (tree/DAG): %.2fx\n" geo

let subjects = lazy (List.map (fun (n, net) -> (n, Subject.of_network net))
                       (Iscas_like.table_circuits ()))

let run_table number lib_name paper_note =
  let lib = Option.get (Libraries.by_name lib_name) in
  let db = Matchdb.prepare lib in
  hr (Printf.sprintf "Table %d: tree vs DAG mapping, %s-like library (%d gates)"
        number lib_name (List.length lib.Libraries.gates));
  Printf.printf "%s\n\n" paper_note;
  let rows =
    List.map (fun (name, g) -> map_row db g name) (Lazy.force subjects)
  in
  print_table rows

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let gate_of_expr name ~delay n expr =
  Gate.make ~name ~area:(float_of_int n)
    ~pins:(Array.init n (fun i -> Gate.simple_pin ~delay (Printf.sprintf "p%d" i)))
    expr

let count_matches cls g ~fanouts p root =
  let n = ref 0 in
  Mapper.for_each_match cls g ~fanouts p root (fun _ -> incr n);
  !n

let run_figure1 () =
  hr "Figure 1: standard match vs extended match";
  Printf.printf
    "Paper: the AND pattern matches the subject only as an extended match,\n\
     by mapping pattern nodes m and m' onto the same subject node n.\n\n";
  let bld = Subject.Builder.create () in
  let a = Subject.Builder.pi bld "a" in
  let b = Subject.Builder.pi bld "b" in
  let n = Subject.Builder.nand bld a b in
  let nn = Subject.Builder.raw_nand bld n n in
  let top = Subject.Builder.inv bld nn in
  Subject.Builder.output bld "f" top;
  let g = Subject.Builder.finish bld in
  let and2 = gate_of_expr "and2" ~delay:1.3 2 Bexpr.(and2 (var 0) (var 1)) in
  let p =
    match Pattern.of_gate ~max_shapes:1 and2 with [ p ] -> p | _ -> assert false
  in
  let fanouts = Subject.fanout_counts g in
  List.iter
    (fun cls ->
      Printf.printf "  %-8s matches of AND2 at the root: %d\n"
        (Matcher.class_name cls)
        (count_matches cls g ~fanouts p top))
    [ Matcher.Standard; Matcher.Exact; Matcher.Extended ];
  Printf.printf "  reproduced: standard = 0, extended = 1  %s\n"
    (if
       count_matches Matcher.Standard g ~fanouts p top = 0
       && count_matches Matcher.Extended g ~fanouts p top = 1
     then "[ok]"
     else "[MISMATCH]")

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let run_figure2 () =
  hr "Figure 2: duplication of subject-graph nodes in DAG mapping";
  Printf.printf
    "Paper: tree mapping cannot use the pattern (no exact match); DAG\n\
     mapping uses it on both outputs, duplicating the shared middle cone\n\
     and moving the multiple-fanout point to the primary inputs.\n\n";
  let bld = Subject.Builder.create () in
  let a = Subject.Builder.pi bld "a" in
  let b = Subject.Builder.pi bld "b" in
  let c = Subject.Builder.pi bld "c" in
  let d = Subject.Builder.pi bld "d" in
  let mid = Subject.Builder.nand bld b c in
  let out1 = Subject.Builder.nand bld a mid in
  let out2 = Subject.Builder.nand bld mid d in
  Subject.Builder.output bld "o1" out1;
  Subject.Builder.output bld "o2" out2;
  let g = Subject.Builder.finish bld in
  let big =
    gate_of_expr "big" ~delay:1.2 3
      Bexpr.(not_ (and2 (var 0) (not_ (and2 (var 1) (var 2)))))
  in
  let pbig =
    match Pattern.of_gate ~max_shapes:1 big with [ p ] -> p | _ -> assert false
  in
  let fanouts = Subject.fanout_counts g in
  Printf.printf "  exact matches at out1/out2:    %d / %d\n"
    (count_matches Matcher.Exact g ~fanouts pbig out1)
    (count_matches Matcher.Exact g ~fanouts pbig out2);
  Printf.printf "  standard matches at out1/out2: %d / %d\n"
    (count_matches Matcher.Standard g ~fanouts pbig out1)
    (count_matches Matcher.Standard g ~fanouts pbig out2);
  let inv = gate_of_expr "inv" ~delay:0.5 1 Bexpr.(not_ (var 0)) in
  let nand2 =
    gate_of_expr "nand2" ~delay:1.0 2 Bexpr.(not_ (and2 (var 0) (var 1)))
  in
  let lib = Libraries.make "fig2" [ inv; nand2; big ] in
  let db = Matchdb.prepare lib in
  let tree = Mapper.map Mapper.Tree db g in
  let dag = Mapper.map Mapper.Dag db g in
  Printf.printf "  tree mapping: delay=%.2f gates=%d duplication=%d\n"
    (Netlist.delay tree.Mapper.netlist)
    (Netlist.num_gates tree.Mapper.netlist)
    (Netlist.duplication tree.Mapper.netlist);
  Printf.printf "  DAG mapping:  delay=%.2f gates=%d duplication=%d\n"
    (Netlist.delay dag.Mapper.netlist)
    (Netlist.num_gates dag.Mapper.netlist)
    (Netlist.duplication dag.Mapper.netlist);
  Printf.printf "  reproduced: DAG uses the big gate twice %s\n"
    (if
       Netlist.num_gates dag.Mapper.netlist = 2
       && Netlist.duplication dag.Mapper.netlist = 1
       && Netlist.delay dag.Mapper.netlist < Netlist.delay tree.Mapper.netlist
     then "[ok]"
     else "[MISMATCH]")

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 6)                                     *)
(* ------------------------------------------------------------------ *)

let run_ablation_match_classes () =
  hr "Ablation: standard vs extended matches (paper footnote 3)";
  Printf.printf
    "Paper: \"we have not been able to see any major difference in mapping\n\
     quality between the use of standard matches and extended matches.\"\n\n";
  let lib = Option.get (Libraries.by_name "lib2") in
  let db = Matchdb.prepare lib in
  Printf.printf "%-8s | %10s | %10s | %s\n" "circuit" "standard" "extended"
    "difference";
  List.iter
    (fun (name, g) ->
      let ds = Netlist.delay (Mapper.map Mapper.Dag db g).Mapper.netlist in
      let de =
        Netlist.delay (Mapper.map Mapper.Dag_extended db g).Mapper.netlist
      in
      Printf.printf "%-8s | %10.2f | %10.2f | %+.2f\n" name ds de (de -. ds))
    (Lazy.force subjects)

let run_ablation_shapes () =
  hr "Ablation: pattern-shape variants per gate (expanded pattern graphs)";
  Printf.printf
    "The matcher only finds matches whose tree shape exists among the\n\
     generated patterns (Rudell footnote 2); capping decomposition shapes\n\
     trades delay for matching time. Complex gates (44-3) feel it most.\n\n";
  let gates = (Option.get (Libraries.by_name "44-3")).Libraries.gates in
  let db1 = Matchdb.prepare (Libraries.make ~max_shapes:1 "44-3v1" gates) in
  let db6 = Matchdb.prepare (Libraries.make ~max_shapes:6 "44-3v6" gates) in
  Printf.printf "%-8s | %14s | %14s\n" "circuit" "1 shape/gate"
    "6 shapes/gate";
  List.iter
    (fun (name, g) ->
      let delay db =
        Netlist.delay (Mapper.map Mapper.Dag db g).Mapper.netlist
      in
      Printf.printf "%-8s | %14.2f | %14.2f\n" name (delay db1) (delay db6))
    [ List.nth (Lazy.force subjects) 0 (* C2670 *);
      List.nth (Lazy.force subjects) 3 (* C6288 *) ]

let run_ablation_area_recovery () =
  hr "Ablation: slack-driven area recovery after DAG mapping (paper §6)";
  Printf.printf
    "Paper: \"by constructing slower but smaller mappings for non-critical\n\
     subnetworks we can have better control over area increase.\"\n\n";
  let lib = Option.get (Libraries.by_name "lib2") in
  let db = Matchdb.prepare lib in
  Printf.printf "%-8s | %9s -> %9s | %6s | %s\n" "circuit" "DAG area"
    "recovered" "saved" "delay preserved";
  List.iter
    (fun (name, g) ->
      let r = Mapper.map Mapper.Dag db g in
      let recovered = Area_recovery.recover db Mapper.Dag g r in
      let a0 = Netlist.area r.Mapper.netlist in
      let a1 = Netlist.area recovered in
      Printf.printf "%-8s | %9.0f -> %9.0f | %5.1f%% | %b\n" name a0 a1
        (100.0 *. (a0 -. a1) /. a0)
        (Float.abs (Netlist.delay recovered -. Netlist.delay r.Mapper.netlist)
        < 1e-6))
    (Lazy.force subjects)

let run_engine_comparison () =
  hr "Beyond the paper: structural DAG covering vs cut-based Boolean matching";
  Printf.printf
    "The paper's mapper matches pattern graphs structurally; modern mappers\n\
     (ABC) enumerate priority cuts and match functions. Boolean matching is\n\
     insensitive to decomposition shape but bounded in cut width (<= 6 here,\n\
     so 16-input gates are out of reach) and prunes its cut space.\n\n";
  Printf.printf "%-8s %-6s | %9s | %9s | %9s %9s\n" "circuit" "lib"
    "struct-d" "cut-d" "struct-s" "cut-s";
  List.iter
    (fun lib_name ->
      let lib = Option.get (Libraries.by_name lib_name) in
      let pdb = Matchdb.prepare lib in
      let bdb = Matchdb.boolean pdb in
      List.iter
        (fun (name, g) ->
          let t0 = Clock.now () in
          let rp = Mapper.map Mapper.Dag pdb g in
          let t1 = Clock.now () in
          let rc = Dagmap_cutmap.Cut_mapper.map bdb g in
          let t2 = Clock.now () in
          Printf.printf "%-8s %-6s | %9.2f | %9.2f | %8.2fs %8.2fs\n" name
            lib_name
            (Netlist.delay rp.Mapper.netlist)
            (Netlist.delay rc.Dagmap_cutmap.Cut_mapper.netlist)
            (t1 -. t0) (t2 -. t1))
        [ List.nth (Lazy.force subjects) 0; List.nth (Lazy.force subjects) 3 ])
    [ "lib2"; "44-1"; "44-3" ]

let run_ablation_cut_budget () =
  hr "Ablation: cut budget (priority cuts per node) vs mapping quality";
  Printf.printf
    "The cut-based engine converges to the structural engine's quality as\n\
     its per-node cut budget grows (C6288-like, 44-1 library).\n\n";
  let g = snd (List.nth (Lazy.force subjects) 3) in
  let lib = Option.get (Libraries.by_name "44-1") in
  let pdb = Matchdb.prepare lib in
  let bdb = Matchdb.boolean pdb in
  let reference = Netlist.delay (Mapper.map Mapper.Dag pdb g).Mapper.netlist in
  Printf.printf "  structural reference: %.2f\n" reference;
  List.iter
    (fun priority ->
      let t0 = Clock.now () in
      let r = Dagmap_cutmap.Cut_mapper.map ~priority bdb g in
      Printf.printf "  priority=%3d: delay=%7.2f  (%.2fs)\n" priority
        (Netlist.delay r.Dagmap_cutmap.Cut_mapper.netlist)
        (Clock.now () -. t0))
    [ 4; 12; 25; 50; 100 ]

let run_delay_model_validation () =
  hr "Delay-model validation (paper §5): sizing after load-independent mapping";
  Printf.printf
    "The paper justifies mapping with intrinsic delays by sizing gates\n\
     afterwards so each gate's real (loaded) delay approaches the delay the\n\
     mapper assumed. Columns: the mapper's objective, the loaded delay at\n\
     unit size, after continuous sizing (tolerance 15%%), and the area cost.\n\n";
  let lib = Option.get (Libraries.by_name "lib2") in
  let db = Matchdb.prepare lib in
  Printf.printf "%-8s | %9s | %10s | %9s | %8s\n" "circuit" "intrinsic"
    "loaded(x1)" "sized" "area x";
  List.iter
    (fun (name, g) ->
      let nl = (Mapper.map Mapper.Dag db g).Mapper.netlist in
      let sized = Sizing.size_to_target nl in
      Printf.printf "%-8s | %9.2f | %10.2f | %9.2f | %8.2f\n" name
        (Netlist.delay nl) (Sizing.loaded_delay nl)
        (Sizing.loaded_delay ~sizes:sized.Sizing.sizes nl)
        (sized.Sizing.sized_area /. Netlist.area nl))
    (Lazy.force subjects)

let run_decomposition_sensitivity () =
  hr "Ablation: initial decomposition choice (paper §4, Lehman et al.)";
  Printf.printf
    "\"Since a single subject graph is chosen among a huge number of\n\
     different decompositions ... it is likely that many potentially good\n\
     mappings are simply not explored due to this initial choice.\"\n\
     DAG-mapped delay under three re-associations of the n-ary chains in\n\
     the node functions (44-3 library). Wide-node circuits (decoders,\n\
     lookahead carries) are sensitive; circuits made of 2-3 input nodes\n\
     are not:\n\n";
  let lib = Option.get (Libraries.by_name "44-3") in
  let db = Matchdb.prepare lib in
  Printf.printf "%-8s | %9s | %9s | %9s\n" "circuit" "balanced" "left" "right";
  List.iter
    (fun (name, net) ->
      let delay style =
        let g = Subject.of_network ~style net in
        Netlist.delay (Mapper.map Mapper.Dag db g).Mapper.netlist
      in
      Printf.printf "%-8s | %9.2f | %9.2f | %9.2f\n" name
        (delay Subject.Balanced) (delay Subject.Left_skew)
        (delay Subject.Right_skew))
    [ ("decoder6", Generators.decoder 6);
      ("cla32", Generators.carry_lookahead_adder 32);
      ("C3540", Iscas_like.c3540_like ()) ]

let run_complexity_section () =
  hr "Complexity validation (paper §3.4): O(s p) labeling";
  Printf.printf
    "The paper claims DAG mapping is linear in the subject size s for a\n\
     fixed library (p constant). Runtime of the full map on seeded random\n\
     logic of growing size (lib2-like library):\n\n";
  let lib = Option.get (Libraries.by_name "lib2") in
  let db = Matchdb.prepare lib in
  Printf.printf "%-10s | %8s | %9s | %12s\n" "nodes" "subject" "seconds"
    "us per node";
  List.iter
    (fun nodes ->
      let net =
        Generators.random_dag ~seed:4242 ~inputs:64 ~outputs:32 ~nodes ()
      in
      let g = Subject.of_network net in
      let t0 = Clock.now () in
      let _ = Mapper.map Mapper.Dag db g in
      let dt = Clock.now () -. t0 in
      Printf.printf "%-10d | %8d | %9.3f | %12.2f\n" nodes
        (Subject.num_nodes g) dt
        (dt *. 1e6 /. float_of_int (Subject.num_nodes g)))
    [ 500; 1000; 2000; 4000; 8000; 16000 ]

let run_architecture_study () =
  hr "Beyond the paper: mapping quality across circuit architectures";
  Printf.printf
    "Tree-vs-DAG delay on the same function implemented with different\n\
     structures (16-bit add, 8x8 multiply; 44-3 library). The prefix adder\n\
     and Wallace tree trade area for reconvergent fanout, which tree\n\
     covering handles poorly and DAG covering exploits.\n\n";
  let lib = Option.get (Libraries.by_name "44-3") in
  let db = Matchdb.prepare lib in
  Printf.printf "%-22s | %8s | %8s | %6s\n" "architecture" "tree-d" "DAG-d"
    "ratio";
  List.iter
    (fun (name, net) ->
      let g = Subject.of_network net in
      let dt = Netlist.delay (Mapper.map Mapper.Tree db g).Mapper.netlist in
      let dd = Netlist.delay (Mapper.map Mapper.Dag db g).Mapper.netlist in
      Printf.printf "%-22s | %8.2f | %8.2f | %5.2fx\n" name dt dd (dt /. dd))
    [ ("ripple-adder-16", Generators.ripple_adder 16);
      ("carry-lookahead-16", Generators.carry_lookahead_adder 16);
      ("carry-select-16", Generators.carry_select_adder 16);
      ("kogge-stone-16", Generators.kogge_stone_adder 16);
      ("array-mult-8", Generators.array_multiplier 8);
      ("wallace-mult-8", Generators.wallace_multiplier 8) ]

let run_flowmap_section () =
  hr "FlowMap baseline (paper §2): depth-optimal k-LUT mapping";
  Printf.printf
    "The labeling principle the paper transfers to library mapping.\n\n";
  Printf.printf "%-8s | %5s | %6s | %6s\n" "circuit" "k" "depth" "#LUTs";
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let cover = Dagmap_flowmap.Flowmap.map ~k g in
          Printf.printf "%-8s | %5d | %6d | %6d\n" name k
            (Dagmap_flowmap.Flowmap.depth cover)
            (Dagmap_flowmap.Flowmap.num_luts cover))
        [ 4; 5 ])
    [ List.nth (Lazy.force subjects) 3 (* C6288 *) ]

let run_retime_section () =
  hr "Sequential extension (paper §4): map + retime, and the optimal period";
  Printf.printf
    "Three-step transformation (retime / map / retime) vs the Pan-Liu-style\n\
     optimal decision procedure with pattern matching: the optimal labeling\n\
     maps across latch boundaries, which the three-step flow cannot.\n\n";
  let lib = Option.get (Libraries.by_name "lib2") in
  let db = Matchdb.prepare lib in
  List.iter
    (fun (name, net) ->
      let r = Dagmap_retime.Seq_map.run db Mapper.Dag net in
      let optimal = Dagmap_retime.Seq_opt.min_period db Mapper.Dag net in
      Printf.printf
        "%-22s comb=%6.2f  period %6.2f -> %6.2f (3-step) -> %6.2f (optimal)\n"
        name r.Dagmap_retime.Seq_map.comb_delay
        r.Dagmap_retime.Seq_map.period_before
        r.Dagmap_retime.Seq_map.period_after optimal)
    [ ("lfsr24", Generators.lfsr 24);
      ("pipelined-parity-64x5", Generators.pipelined_parity 64 5) ]

(* ------------------------------------------------------------------ *)
(* Multicore labeling (Mapper.map ~jobs over the Parmap pool)          *)
(* ------------------------------------------------------------------ *)

let run_parallel_section () =
  hr "Beyond the paper: level-parallel labeling";
  Printf.printf
    "The labeling DP is independent within a topological level, so the\n\
     labeler fans each wide level across OCaml 5 domains. Labels are\n\
     bit-identical for every domain count (asserted below).\n\n";
  let circuits =
    [ (* The rich library, where match enumeration is most expensive. *)
      ("c6288 / 44-3", "44-3", Subject.of_network (Iscas_like.c6288_like ()));
      (* Random logic at scale: the widest parallel fronts. *)
      ("rand16k / lib2", "lib2",
       Subject.of_network
         (Generators.random_dag ~seed:4242 ~inputs:64 ~outputs:32 ~nodes:16000
            ())) ]
  in
  let time = Clock.time in
  List.iter
    (fun (name, lib_name, g) ->
      let lib = Option.get (Libraries.by_name lib_name) in
      let db = Matchdb.prepare lib in
      Printf.printf "%s: %s\n" name (Subject.stats g);
      let reference, t_seq = time (fun () -> Mapper.map Mapper.Dag db g) in
      Printf.printf "  sequential           : %7.3fs  delay=%.2f (baseline)\n%!"
        t_seq
        (Netlist.delay reference.Mapper.netlist);
      List.iter
        (fun jobs ->
          let r, t = time (fun () -> Mapper.map ~jobs Mapper.Dag db g) in
          Printf.printf
            "  parallel, %2d domains  : %7.3fs  %5.2fx  %d/%d levels parallel  \
             identical=%b\n%!"
            jobs t (t_seq /. t) r.Mapper.par.Parmap.parallel_levels
            r.Mapper.par.Parmap.levels
            (r.Mapper.labels = reference.Mapper.labels))
        [ 1; 2; 4; Parmap.recommended_jobs () ])
    circuits

(* ------------------------------------------------------------------ *)
(* Supergate libraries (Superenum / Superlib)                          *)
(* ------------------------------------------------------------------ *)

let run_super_section () =
  let open Dagmap_super in
  hr "Beyond the paper: supergate library generation";
  Printf.printf
    "Superenum composes library gates into supergates (bounded depth, pins\n\
     and size), dedups them by NPN class keeping delay-dominant reps, and\n\
     emits ordinary genlib gates. The mapper is unchanged; only the library\n\
     grows. Deltas below are augmented-vs-base DAG mapping; netlists are\n\
     verified equivalent by random simulation.\n\n";
  let circuits =
    [ ("c432", Subject.of_network (Iscas_like.c432_like ()));
      ("c880", Subject.of_network (Iscas_like.c880_like ()));
      ("c1908", Subject.of_network (Iscas_like.c1908_like ()));
      ("c6288", Subject.of_network (Iscas_like.c6288_like ()));
      ("ks32", Subject.of_network (Generators.kogge_stone_adder 32));
      ("cla32", Subject.of_network (Generators.carry_lookahead_adder 32)) ]
  in
  List.iter
    (fun (lib_name, bounds) ->
      let base = Option.get (Libraries.by_name lib_name) in
      let jobs = Parmap.recommended_jobs () in
      let sgl, stats = Superlib.make ~bounds ~jobs base in
      let aug = Superlib.augment base sgl in
      Printf.printf
        "%s: %d supergates (of %d compositions, %d NPN classes) in %.2fs on \
         %d domains\n"
        lib_name stats.Superenum.emitted stats.Superenum.considered
        stats.Superenum.distinct_classes stats.Superenum.seconds jobs;
      let db_base = Matchdb.prepare base in
      let db_aug = Matchdb.prepare aug in
      Printf.printf "  %-8s | %14s | %7s | %14s | %7s | %5s | %s\n" "circuit"
        "delay" "%" "area" "cpu x" "used" "equiv";
      List.iter
        (fun (cname, g) ->
          let rb, tb = Clock.time (fun () -> Mapper.map Mapper.Dag db_base g) in
          let ra, ta = Clock.time (fun () -> Mapper.map Mapper.Dag db_aug g) in
          let db_ = Netlist.delay rb.Mapper.netlist in
          let da = Netlist.delay ra.Mapper.netlist in
          let n_inputs = List.length (Subject.pi_ids g) in
          let equiv =
            Equiv.is_equivalent
              (Equiv.compare_sims ~rounds:4 ~n_inputs (Simulate.subject g)
                 (Simulate.netlist ra.Mapper.netlist))
          in
          Printf.printf
            "  %-8s | %6.2f -> %5.2f | %+6.1f%% | %6.0f -> %5.0f | %7.2f | \
             %5d | %b\n%!"
            cname db_ da
            (100.0 *. (da -. db_) /. db_)
            (Netlist.area rb.Mapper.netlist)
            (Netlist.area ra.Mapper.netlist)
            (ta /. Float.max 1e-9 tb)
            ra.Mapper.run.Mapper.super_gates_used equiv)
        circuits)
    [ ("lib2", { Superenum.default_bounds with max_pins = 4; max_size = 3 });
      ("44-1", Superenum.default_bounds) ]

(* ------------------------------------------------------------------ *)
(* Machine-readable bench trajectory: `json` and `compare` modes       *)
(* ------------------------------------------------------------------ *)

(* `bench json [quick] [FILE]` writes one BENCH_<stamp>.json snapshot
   of mapping quality and runtime. Schema "dagmap-bench/1" (see
   EXPERIMENTS.md):

     { "schema":  "dagmap-bench/1",
       "generated": "YYYYMMDD_HHMMSS",
       "quick":   bool,
       "rows":    [ { "circuit", "library", "mode",   -- tree|dag|super
                      "delay", "area", "gates", "duplicated",
                      "wall_seconds", "cpu_seconds" } ],
       "parallel": { "jobs", "chunks", "parallel_levels",
                     "wall_seconds", "sequential_wall_seconds",
                     "speedup", "identical" },
       "metrics": { ... }  }                          -- full registry dump

   `bench compare NEW BASELINE` reloads two such files and fails (exit
   1) when the geometric-mean dag-mode wall-time ratio NEW/BASELINE
   exceeds 1.25 — the CI regression gate. Delay and area are also
   compared, with zero tolerance: both are deterministic, so any drift
   is a quality regression, not noise. *)

let bench_schema = "dagmap-bench/1"

(* Collision-proof default artifact names: concurrent bench runs on
   one machine (CI matrix jobs, a serve bench next to a quick bench)
   must never clobber each other's BENCH_*.json. The stamp has
   one-second resolution, so the pid disambiguates processes and the
   O_EXCL retry loop disambiguates calls within one process-second.
   Explicit FILE arguments bypass this — the CI compare step depends
   on choosing its own names. *)
let fresh_bench_path prefix =
  let rec go k =
    let path =
      if k = 0 then
        Printf.sprintf "BENCH_%s%s_%d.json" prefix (Clock.stamp ())
          (Unix.getpid ())
      else
        Printf.sprintf "BENCH_%s%s_%d_%d.json" prefix (Clock.stamp ())
          (Unix.getpid ()) k
    in
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    with
    | fd ->
      Unix.close fd;
      path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
  in
  go 0

(* peak_rss_bytes is the process high-water mark at row creation time
   — monotone across the run, so within one snapshot later rows carry
   the running maximum (see Resource). Report-only; compare prints a
   memory column but never gates on it. *)
let bench_row ?(extra = []) ~circuit ~library ~mode nl ~wall ~cpu () =
  Json.Obj
    ([ ("circuit", Json.String circuit);
       ("library", Json.String library);
       ("mode", Json.String mode);
       ("delay", Json.Float (Netlist.delay nl));
       ("area", Json.Float (Netlist.area nl));
       ("gates", Json.Int (Netlist.num_gates nl));
       ("duplicated", Json.Int (Netlist.duplication nl));
       ("wall_seconds", Json.Float wall);
       ("cpu_seconds", Json.Float cpu);
       ("peak_rss_bytes", Json.Int (Resource.peak_rss_bytes ())) ]
    @ extra)

(* The cut engine's job-count parity gate: two runs of one circuit
   agree on labels, matcher work, delay and area. *)
let same_cut_result (a : Dagmap_cutmap.Cut_mapper.result)
    (b : Dagmap_cutmap.Cut_mapper.result) =
  let open Dagmap_cutmap.Cut_mapper in
  a.labels = b.labels
  && a.matches_evaluated = b.matches_evaluated
  && Netlist.delay a.netlist = Netlist.delay b.netlist
  && Netlist.area a.netlist = Netlist.area b.netlist

let run_json quick out_file =
  let open Dagmap_super in
  Metrics.reset_all ();
  let circuits =
    let all = Iscas_like.table_circuits () in
    if quick then
      List.filter (fun (n, _) -> n = "C2670" || n = "C6288") all
    else all
  in
  let subjects =
    List.map (fun (n, net) -> (n, Subject.of_network net)) circuits
  in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  (* Tree and DAG rows for each circuit under each of the three paper
     libraries — the machine-readable form of Tables 1-3, with both
     time bases so parallel speedups stay visible. *)
  List.iter
    (fun lib_name ->
      let lib = Option.get (Libraries.by_name lib_name) in
      let db = Matchdb.prepare lib in
      List.iter
        (fun (cname, g) ->
          List.iter
            (fun (tag, mode) ->
              let r, wall, cpu =
                Clock.time_wall_cpu (fun () -> Mapper.map mode db g)
              in
              push
                (bench_row ~circuit:cname ~library:lib_name ~mode:tag
                   r.Mapper.netlist ~wall ~cpu ()))
            [ ("tree", Mapper.Tree); ("dag", Mapper.Dag) ])
        subjects)
    [ "lib2"; "44-1"; "44-3" ];
  (* Super rows: DAG mapping under lib2 augmented with a small
     in-process supergate library (fuzz-sized bounds keep this cheap
     enough for CI). *)
  let base = Option.get (Libraries.by_name "lib2") in
  let bounds =
    { Superenum.default_bounds with
      Superenum.max_pins = 4;
      max_size = 3;
      max_gates = 48 }
  in
  let sgl, _ = Superlib.make ~bounds ~jobs:2 base in
  let db_aug = Matchdb.prepare (Superlib.augment base sgl) in
  List.iter
    (fun (cname, g) ->
      let r, wall, cpu =
        Clock.time_wall_cpu (fun () -> Mapper.map Mapper.Dag db_aug g)
      in
      push
        (bench_row ~circuit:cname ~library:"lib2" ~mode:"super"
           r.Mapper.netlist ~wall ~cpu ()))
    subjects;
  (* Parallel snapshot: sequential vs 4-domain labeling on the last
     (largest) circuit, plus the work-steal counters the run left in
     the registry. *)
  let pname, pg = List.nth subjects (List.length subjects - 1) in
  let db = Matchdb.prepare base in
  let rseq, seq_wall = Clock.time (fun () -> Mapper.map Mapper.Dag db pg) in
  let rpar, par_wall =
    Clock.time (fun () -> Mapper.map ~jobs:4 Mapper.Dag db pg)
  in
  let par = rpar.Mapper.par in
  let parallel =
    Json.Obj
      [ ("circuit", Json.String pname);
        ("jobs", Json.Int par.Parmap.domains);
        ("chunks", Json.Int par.Parmap.chunks);
        ("parallel_levels", Json.Int par.Parmap.parallel_levels);
        ("wall_seconds", Json.Float par_wall);
        ("sequential_wall_seconds", Json.Float seq_wall);
        ("speedup", Json.Float (seq_wall /. Float.max 1e-9 par_wall));
        ("identical", Json.Bool (rpar.Mapper.labels = rseq.Mapper.labels)) ]
  in
  (* Cut-mapper section: priority pruning vs full enumeration
     (matcher work saved), delay delta vs the structural DAG
     reference, and jobs=1/jobs=4 parity. The parity bit is a hard
     gate — the run exits nonzero if the parallel sweep ever diverges
     from the sequential one. *)
  let cuts_ok = ref true in
  let cuts_rows =
    List.map
      (fun (cname, g) ->
        let bdb = Matchdb.boolean db in
        let rdag = Mapper.map Mapper.Dag db g in
        let r8, wall8 =
          Clock.time (fun () -> Dagmap_cutmap.Cut_mapper.map ~priority:8 bdb g)
        in
        let rfull, wall_full =
          Clock.time (fun () ->
              Dagmap_cutmap.Cut_mapper.map ~priority:1_000_000 bdb g)
        in
        let rar = Dagmap_cutmap.Cut_mapper.map ~jobs:4 ~priority:8 bdb g in
        let open Dagmap_cutmap in
        let identical = same_cut_result rar r8 in
        if not identical then cuts_ok := false;
        let d8 = Netlist.delay r8.Cut_mapper.netlist in
        let dfull = Netlist.delay rfull.Cut_mapper.netlist in
        let ddag = Netlist.delay rdag.Mapper.netlist in
        Json.Obj
          [ ("circuit", Json.String cname);
            ("library", Json.String base.Libraries.lib_name);
            ("priority", Json.Int 8);
            ("delay", Json.Float d8);
            ("delay_full_enumeration", Json.Float dfull);
            ("delay_dag", Json.Float ddag);
            ("delay_delta_vs_dag", Json.Float (d8 -. ddag));
            ("matches_evaluated", Json.Int r8.Cut_mapper.matches_evaluated);
            ( "matches_evaluated_full",
              Json.Int rfull.Cut_mapper.matches_evaluated );
            ("wall_seconds", Json.Float wall8);
            ("wall_seconds_full", Json.Float wall_full);
            ("arena_parallel_identical", Json.Bool identical) ])
      subjects
  in
  let doc =
    Json.Obj
      [ ("schema", Json.String bench_schema);
        ("generated", Json.String (Clock.stamp ()));
        ("quick", Json.Bool quick);
        ("rows", Json.List (List.rev !rows));
        ("parallel", parallel);
        ("cuts", Json.List cuts_rows);
        ("metrics", Metrics.to_json ()) ]
  in
  let path =
    match out_file with
    | Some p -> p
    | None -> fresh_bench_path ""
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length !rows);
  if not !cuts_ok then begin
    Printf.printf "FAIL: the cut mapper at jobs=4 diverged from jobs=1\n";
    exit 1
  end

(* Huge tier: `bench json huge [nodes=N] [jobs=J] [FILE]`. One
   end-to-end production-scale run — generate a synthetic SoC,
   round-trip it through BLIF with the streaming reader, decompose
   into the flat subject graph, map (sequentially, then with the
   parallel labeler), and verify — with every phase
   timed and peak RSS recorded. The row lives in the same "rows"
   schema (tier = "huge"), so `bench compare` of two huge snapshots
   gates on its wall time exactly like the quick tier; extra fields —
   including the whole "parallel" section, whose wall times depend on
   the core count — are report-only. Defaults to 400k network nodes
   (>= 1M subject nodes after NAND2-INV decomposition) and jobs=4;
   CI smoke runs nodes=100000. *)
let run_json_huge nodes jobs out_file =
  let open Dagmap_blif in
  let open Dagmap_check in
  Metrics.reset_all ();
  let net, gen_wall =
    Clock.time (fun () -> Generators.synthetic_soc ~seed:1 ~nodes ())
  in
  Printf.printf "huge tier: %s (generated in %.1fs)\n%!" (Network.stats net)
    gen_wall;
  let blif_path = Filename.temp_file "dagmap_huge" ".blif" in
  let parsed, parse_wall, g, build_wall =
    Fun.protect
      ~finally:(fun () -> try Sys.remove blif_path with Sys_error _ -> ())
      (fun () ->
        let oc = open_out blif_path in
        output_string oc (Blif.write_network net);
        close_out oc;
        let parsed, parse_wall =
          Clock.time (fun () -> Blif.read_file blif_path)
        in
        let g, build_wall = Clock.time (fun () -> Flow.decompose parsed) in
        (parsed, parse_wall, g, build_wall))
  in
  Printf.printf "  parsed %d network nodes in %.1fs (streaming)\n%!"
    (Network.num_nodes parsed) parse_wall;
  Printf.printf "  %s, built in %.1fs\n%!" (Subject.arena_stats g) build_wall;
  let db = Matchdb.prepare (Option.get (Libraries.by_name "44-1")) in
  let audit_clean (r : Flow.result) =
    Check.audit g ~predicted:r.Flow.predicted r.Flow.netlist = []
  in
  let dag = Flow.Pattern Mapper.Dag
  and cut = Flow.Cut { priority = Flow.default_cut_priority } in
  let pattern_run (r : Flow.result) =
    match r.Flow.run with
    | Flow.Pattern_run p -> p
    | Flow.Cut_run _ -> invalid_arg "pattern_run"
  and cut_run (r : Flow.result) =
    match r.Flow.run with
    | Flow.Cut_run c -> c
    | Flow.Pattern_run _ -> invalid_arg "cut_run"
  in
  let fr, map_wall, map_cpu =
    Clock.time_wall_cpu (fun () -> Flow.map dag db g)
  in
  let r = pattern_run fr in
  let clean = audit_clean fr in
  Printf.printf
    "  mapped in %.1fs wall / %.1fs cpu: delay=%.2f area=%.0f gates=%d \
     check=%s\n%!"
    map_wall map_cpu
    (Netlist.delay r.Mapper.netlist)
    (Netlist.area r.Mapper.netlist)
    (Netlist.num_gates r.Mapper.netlist)
    (if clean then "ok" else "FAIL");
  (* The row is built here, before the parallel and cut sections run,
     so its peak_rss_bytes is the dag map's high-water mark and not
     the cut engine's. *)
  let row =
    bench_row
      ~extra:
        [ ("tier", Json.String "huge");
          ("network_nodes", Json.Int nodes);
          ("subject_nodes", Json.Int (Subject.num_nodes g));
          ("generate_seconds", Json.Float gen_wall);
          ("parse_seconds", Json.Float parse_wall);
          ("arena_build_seconds", Json.Float build_wall);
          ("arena_mem_bytes", Json.Int (Subject.mem_bytes g));
          ("check_clean", Json.Bool clean) ]
      ~circuit:(Printf.sprintf "soc%d" nodes)
      ~library:"44-1" ~mode:"dag" r.Mapper.netlist ~wall:map_wall ~cpu:map_cpu
      ()
  in
  (* Parallel labeling over the same graph: the speedup the flat
     core exists for. Identity to the sequential result is
     a hard gate (bit-equal labels, same cover); the wall/speedup
     numbers are report-only — they measure the machine's core count
     as much as the code. *)
  let rpar, par_wall, par_cpu =
    Clock.time_wall_cpu (fun () -> pattern_run (Flow.map ~jobs dag db g))
  in
  let par_stats = rpar.Mapper.par in
  let par_identical =
    rpar.Mapper.labels = r.Mapper.labels
    && Netlist.delay rpar.Mapper.netlist = Netlist.delay r.Mapper.netlist
    && Netlist.area rpar.Mapper.netlist = Netlist.area r.Mapper.netlist
    && Netlist.num_gates rpar.Mapper.netlist = Netlist.num_gates r.Mapper.netlist
  in
  let seq_label = r.Mapper.run.Mapper.label_seconds in
  let par_label = rpar.Mapper.run.Mapper.label_seconds in
  Printf.printf
    "  parallel (jobs=%d): label %.1fs vs %.1fs seq (%.2fx), wall %.1fs, \
     %d/%d levels parallel, %d chunks, identical=%b\n%!"
    jobs par_label seq_label
    (seq_label /. Float.max 1e-9 par_label)
    par_wall par_stats.Parmap.parallel_levels par_stats.Parmap.levels
    par_stats.Parmap.chunks par_identical;
  let parallel =
    Json.Obj
      [ ("jobs", Json.Int jobs);
        ("wall_seconds", Json.Float par_wall);
        ("cpu_seconds", Json.Float par_cpu);
        ("label_seconds", Json.Float par_label);
        ("seq_label_seconds", Json.Float seq_label);
        ("label_speedup", Json.Float (seq_label /. Float.max 1e-9 par_label));
        ("levels", Json.Int par_stats.Parmap.levels);
        ("parallel_levels", Json.Int par_stats.Parmap.parallel_levels);
        ("widest_level", Json.Int par_stats.Parmap.widest_level);
        ("chunks", Json.Int par_stats.Parmap.chunks);
        ("identical", Json.Bool par_identical) ]
  in
  (* Priority-cut engine over the same graph: sequential vs
     [jobs]-parallel enumeration. Parity is a hard exit gate exactly
     like the structural labeler's; the delay delta vs the dag row is
     report-only (the cut engine is a pruned heuristic). *)
  let fc, cut_wall, cut_cpu =
    Clock.time_wall_cpu (fun () -> Flow.map cut db g)
  in
  let fcp, cut_par_wall = Clock.time (fun () -> Flow.map ~jobs cut db g) in
  let rc = cut_run fc in
  let cut_identical = same_cut_result (cut_run fcp) rc in
  let cut_clean = audit_clean fc in
  let cut_delay = Netlist.delay fc.Flow.netlist in
  let cut_peak_rss = Resource.peak_rss_bytes () in
  Printf.printf
    "  cut (priority=8): %.1fs seq / %.1fs jobs=%d, delay=%.2f \
     (dag %.2f), %d matches evaluated, identical=%b check=%s\n%!"
    cut_wall cut_par_wall jobs cut_delay
    (Netlist.delay r.Mapper.netlist)
    rc.Dagmap_cutmap.Cut_mapper.matches_evaluated cut_identical
    (if cut_clean then "ok" else "FAIL");
  let cuts =
    Json.Obj
      [ ("priority", Json.Int 8);
        ("jobs", Json.Int jobs);
        ("delay", Json.Float cut_delay);
        ("delay_dag", Json.Float (Netlist.delay r.Mapper.netlist));
        ( "delay_delta_vs_dag",
          Json.Float (cut_delay -. Netlist.delay r.Mapper.netlist) );
        ( "matches_evaluated",
          Json.Int rc.Dagmap_cutmap.Cut_mapper.matches_evaluated );
        ( "matched_nodes",
          Json.Int rc.Dagmap_cutmap.Cut_mapper.matched_nodes );
        ("wall_seconds", Json.Float cut_wall);
        ("cpu_seconds", Json.Float cut_cpu);
        ("parallel_wall_seconds", Json.Float cut_par_wall);
        ( "parallel_levels",
          Json.Int fcp.Flow.par.Parmap.parallel_levels );
        ("chunks", Json.Int fcp.Flow.par.Parmap.chunks);
        ("identical", Json.Bool cut_identical);
        ("check_clean", Json.Bool cut_clean);
        ("peak_rss_bytes", Json.Int cut_peak_rss) ]
  in
  let doc =
    Json.Obj
      [ ("schema", Json.String bench_schema);
        ("generated", Json.String (Clock.stamp ()));
        ("quick", Json.Bool false);
        ("tier", Json.String "huge");
        ("rows", Json.List [ row ]);
        ("parallel", parallel);
        ("cuts", cuts);
        ("metrics", Metrics.to_json ()) ]
  in
  let path =
    match out_file with
    | Some p -> p
    | None -> fresh_bench_path "huge_"
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (peak rss %.1f MB)\n" path
    (float_of_int (Resource.peak_rss_bytes ()) /. 1e6);
  if not (clean && par_identical && cut_identical && cut_clean) then exit 1

let run_compare_json new_file base_file =
  let load path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    try Json.parse s
    with Json.Parse_error _ as e ->
      failwith (Printf.sprintf "%s: %s" path (Json.describe e))
  in
  let rows doc =
    match Option.bind (Json.member "rows" doc) Json.to_list with
    | Some rs -> rs
    | None -> failwith "bench compare: no \"rows\" list in document"
  in
  let field name r =
    match Option.bind (Json.member name r) Json.to_string_value with
    | Some s -> s
    | None -> failwith ("bench compare: row without " ^ name)
  in
  let num name r =
    match Option.bind (Json.member name r) Json.to_number with
    | Some x -> x
    | None -> failwith ("bench compare: row without " ^ name)
  in
  let key r = (field "circuit" r, field "library" r, field "mode" r) in
  let doc_new = load new_file and doc_base = load base_file in
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace base_tbl (key r) r) (rows doc_base);
  let num_opt name r = Option.bind (Json.member name r) Json.to_number in
  let ratios = ref [] in
  let quality_bad = ref false in
  Printf.printf "%-8s %-6s %-5s | %9s | %9s | %7s | %s\n" "circuit" "lib"
    "mode" "base-wall" "new-wall" "ratio" "memory (report-only)";
  List.iter
    (fun r ->
      match Hashtbl.find_opt base_tbl (key r) with
      | None -> ()
      | Some b ->
        let c, l, m = key r in
        let wb = num "wall_seconds" b and wn = num "wall_seconds" r in
        let ratio = wn /. Float.max 1e-9 wb in
        if m = "dag" then ratios := ratio :: !ratios;
        (* Delay and area are deterministic: any change is a mapper
           quality regression, flagged regardless of speed. *)
        List.iter
          (fun f ->
            if Float.abs (num f r -. num f b) > 1e-9 then begin
              quality_bad := true;
              Printf.printf "  QUALITY DRIFT %s/%s/%s: %s %.4f -> %.4f\n" c l
                m f (num f b) (num f r)
            end)
          [ "delay"; "area" ];
        (* Memory column: peak RSS when both snapshots recorded it.
           Older baselines predate the field, and the reading is a
           process-wide high-water mark, so this is informational
           only — never a gate. *)
        let mem =
          match num_opt "peak_rss_bytes" b, num_opt "peak_rss_bytes" r with
          | Some mb, Some mn when mb > 0.0 && mn > 0.0 ->
            Printf.sprintf "%6.1f -> %6.1f MB (%.2fx)" (mb /. 1e6)
              (mn /. 1e6) (mn /. mb)
          | None, Some mn when mn > 0.0 ->
            Printf.sprintf "rss %.1f MB (no baseline)" (mn /. 1e6)
          | _ -> "-"
        in
        Printf.printf "%-8s %-6s %-5s | %8.3fs | %8.3fs | %6.2fx | %s\n" c l
          m wb wn ratio mem)
    (rows doc_new);
  (* Parallel section (huge tier): label wall and speedup
     depend on the machine's core count, so until a same-hardware
     baseline is checked in this column is report-only — printed,
     never gated. (Correctness is gated at generation time: `json
     huge` exits nonzero unless the parallel labels are bit-identical
     to the sequential pass.) *)
  let par_info doc =
    match Json.member "parallel" doc with
    | None -> None
    | Some p ->
      let num name = Option.bind (Json.member name p) Json.to_number in
      (match num "label_seconds", num "label_speedup", num "jobs" with
       | Some ls, Some sp, Some j -> Some (int_of_float j, ls, sp)
       | _ -> None)
  in
  (match par_info doc_new, par_info doc_base with
   | Some (j, ls, sp), Some (_, bls, _) ->
     Printf.printf
       "arena-parallel label (report-only): %.3fs -> %.3fs (jobs=%d, %.2fx \
        vs seq)\n"
       bls ls j sp
   | Some (j, ls, sp), None ->
     Printf.printf
       "arena-parallel label (report-only): %.3fs (jobs=%d, %.2fx vs seq; \
        no baseline)\n"
       ls j sp
   | None, _ -> ());
  (* Cut-mapper section: report-only, like the parallel column — the
     cut engine is a pruned heuristic whose budget defaults can move
     between snapshots, so its delay is printed for the reader rather
     than gated. (Within one snapshot, generation already hard-gates
     sequential/parallel parity.) *)
  let cut_delays doc =
    match Json.member "cuts" doc with
    | None -> []
    | Some (Json.List rows) ->
      List.filter_map
        (fun r ->
          match
            ( Option.bind (Json.member "circuit" r) Json.to_string_value,
              Option.bind (Json.member "delay" r) Json.to_number )
          with
          | Some c, Some d -> Some (c, d)
          | _ -> None)
        rows
    | Some obj ->
      (match Option.bind (Json.member "delay" obj) Json.to_number with
       | Some d -> [ ("huge", d) ]
       | None -> [])
  in
  (match cut_delays doc_new with
   | [] -> ()
   | news ->
     let bases = cut_delays doc_base in
     List.iter
       (fun (c, d) ->
         match List.assoc_opt c bases with
         | Some b ->
           Printf.printf "cut-mapper delay (report-only) %s: %.2f -> %.2f\n" c
             b d
         | None ->
           Printf.printf
             "cut-mapper delay (report-only) %s: %.2f (no baseline)\n" c d)
       news);
  if !ratios = [] then failwith "bench compare: no common dag-mode rows";
  let geo =
    exp
      (List.fold_left (fun a r -> a +. log r) 0.0 !ratios
      /. float_of_int (List.length !ratios))
  in
  Printf.printf "geometric-mean dag wall-time ratio (new/base): %.3fx\n" geo;
  if !quality_bad then begin
    Printf.printf "FAIL: delay/area drifted from the baseline\n";
    exit 1
  end;
  if geo > 1.25 then begin
    Printf.printf "FAIL: dag mapping slowed down more than 25%%\n";
    exit 1
  end;
  Printf.printf "ok: within the 25%% regression budget\n"

(* ------------------------------------------------------------------ *)
(* Serve tier: load-generate against techmapd                          *)
(* ------------------------------------------------------------------ *)

(* `bench serve [requests=N] [clients=C] [jobs=J] [queue=Q] [seed=S]
   [attach=SOCK] [faults=PLAN] [budget=S] [FILE]` replays fuzz-style
   circuits through a client pool against techmapd and reports
   p50/p99 latency and saturation throughput into a
   BENCH_serve_*.json snapshot. Without attach= the daemon runs
   in-process (a Server.t on a thread) so the run also exercises
   create/drain; attach= points at an externally started daemon (the
   CI smoke does this to cover the real binary + SIGTERM path).

   Correctness is the gate, not throughput: every corpus circuit is
   mapped locally, fault-free, before the run, and every ok reply —
   degraded or not — must report the same delay/area. Every map
   request carries audit=1 and a reply whose audit is not "ok" fails
   the run.

   faults= hands the same plan spec the daemon takes to the chaos
   path: clients go through the retrying Client.session layer,
   injected failures (injected_fault, watchdog_timeout) are
   re-submitted, and the run fails unless every request eventually
   lands, zero replies are incorrect, and — when budget= arms the
   watchdog against a delay_job plan — the daemon logged at least one
   pool restart. The overload burst (no-retry clients must see busy)
   runs only in the fault-free configuration, where a vanished reply
   would be a real bug rather than an injected one. *)

let run_serve_bench args =
  let open Dagmap_serve in
  let requests = ref 1000
  and clients = ref 4
  and jobs = ref 4
  and queue = ref 32
  and seed = ref 7
  and faults_spec = ref ""
  and budget = ref 0.0
  and attach = ref None
  and out = ref None in
  List.iter
    (fun a ->
      let kv key =
        let n = String.length key in
        if String.length a > n && String.sub a 0 n = key then
          Some (String.sub a n (String.length a - n))
        else None
      in
      let int_of key v =
        match int_of_string_opt v with
        | Some n when n > 0 -> n
        | _ -> failwith (Printf.sprintf "bench serve: bad %s%s" key v)
      in
      let float_of key v =
        match float_of_string_opt v with
        | Some x when x >= 0.0 -> x
        | _ -> failwith (Printf.sprintf "bench serve: bad %s%s" key v)
      in
      match kv "requests=" with
      | Some v -> requests := int_of "requests=" v
      | None -> (
        match kv "clients=" with
        | Some v -> clients := int_of "clients=" v
        | None -> (
          match kv "jobs=" with
          | Some v -> jobs := int_of "jobs=" v
          | None -> (
            match kv "queue=" with
            | Some v -> queue := int_of "queue=" v
            | None -> (
              match kv "seed=" with
              | Some v -> seed := int_of "seed=" v
              | None -> (
                match kv "faults=" with
                | Some v -> faults_spec := v
                | None -> (
                  match kv "budget=" with
                  | Some v -> budget := float_of "budget=" v
                  | None -> (
                    match kv "attach=" with
                    | Some v -> attach := Some v
                    | None -> out := Some a))))))))
    args;
  let faults =
    match Faultplan.parse !faults_spec with
    | Ok f -> f
    | Error m -> failwith ("bench serve: faults=: " ^ m)
  in
  let chaos = Faultplan.is_active faults in
  (* The replay corpus: seeded random reconvergent DAGs shipped as
     BLIF payloads, same generator family the fuzz harness uses. *)
  let corpus =
    Array.init 48 (fun i ->
        let nodes = 30 + (i * 17 mod 91) in
        let net =
          Generators.random_dag ~seed:(!seed + i) ~inputs:12 ~outputs:8
            ~nodes ()
        in
        Dagmap_blif.Blif.write_network net)
  in
  (* Ground truth: each corpus circuit mapped locally with no faults
     in the way. Every ok reply must agree with this — a fault may
     fail a request, it must never change its answer. *)
  let expected =
    let db = Matchdb.prepare (Option.get (Libraries.by_name "lib2")) in
    Array.map
      (fun blif ->
        let net = Dagmap_blif.Blif.read_string ~file:"<corpus>" blif in
        let r = Flow.map (Flow.Pattern Mapper.Dag) db (Flow.decompose net) in
        (Netlist.delay r.Flow.netlist, Netlist.area r.Flow.netlist))
      corpus
  in
  let close_to a b =
    (* replies round-trip floats through %.12g JSON *)
    Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
  in
  let in_process = !attach = None in
  let sock =
    match !attach with
    | Some s -> s
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "techmapd_bench_%d.sock" (Unix.getpid ()))
  in
  let srv, srv_thread =
    if not in_process then (None, None)
    else begin
      let srv =
        Server.create
          { Server.socket_path = sock;
            jobs = !jobs;
            queue_max = !queue;
            libraries =
              [ ("lib2", Option.get (Libraries.by_name "lib2")) ];
            resolve_circuit = Some Flow.circuit_of_spec;
            verbose = false;
            io_timeout_s = 30.0;
            idle_timeout_s = 0.0;
            job_budget_s = !budget;
            faults }
      in
      (Some srv, Some (Thread.create Server.run srv))
    end
  in
  let finally () =
    match srv, srv_thread with
    | Some srv, Some th ->
      Server.stop srv;
      Thread.join th
    | _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  (* Steady state: C clients pull request indices from a shared
     counter. Each client is a retrying Client.session — busy replies
     and transport faults (dropped connections, garbled replies,
     timeouts) back off and retry inside the session; injected
     request failures (crash_job, watchdog_timeout) are re-submitted
     here. Every request must eventually land with a correct
     answer. *)
  let next = Atomic.make 0 in
  let ok = Atomic.make 0
  and errs = Atomic.make 0
  and incorrect = Atomic.make 0
  and injected_failures = Atomic.make 0
  and degraded_replies = Atomic.make 0
  and audit_failures = Atomic.make 0 in
  let lats = Array.make !requests 0.0 in
  let status reply =
    Option.value ~default:"?"
      (Option.bind (Json.member "status" reply) Json.to_string_value)
  in
  let retry =
    { Client.default_retry with
      Client.attempts = (if chaos then 12 else 8) }
  in
  let sessions =
    Array.init !clients (fun k ->
        Client.session ~timeout_s:30.0 ~retry ~seed:(!seed + k) sock)
  in
  let client_loop k =
    let s = sessions.(k) in
    let rec serve_one i resubmits =
      let ci = i mod Array.length corpus in
      let payload = corpus.(ci) in
      let req =
        match i mod 5 with
        | 0 | 1 | 2 -> { (Proto.request Proto.Map) with Proto.audit = true }
        | 3 -> Proto.request Proto.Check
        | _ -> Proto.request Proto.Sta
      in
      let req = { req with Proto.lib = Some "lib2" } in
      let t0 = Clock.now () in
      match Client.call s ~payload req with
      | Error m ->
        Atomic.incr errs;
        Printf.eprintf "bench serve: request %d gave up: %s\n%!" i m
      | Ok reply -> (
        match status reply with
        | "ok" ->
          lats.(i) <- Clock.since t0;
          Atomic.incr ok;
          if Json.member "degraded" reply = Some (Json.Bool true) then
            Atomic.incr degraded_replies;
          let exp_delay, exp_area = expected.(ci) in
          let num name =
            Option.bind (Json.member name reply) Json.to_number
          in
          let matches =
            match num "delay", num "area" with
            | Some d, Some a -> close_to exp_delay d && close_to exp_area a
            | _ -> false
          in
          if not matches then begin
            Atomic.incr incorrect;
            Printf.eprintf
              "bench serve: request %d INCORRECT (want delay %g area %g): \
               %s\n%!"
              i exp_delay exp_area (Json.to_string reply)
          end;
          let audited =
            match req.Proto.verb with
            | Proto.Map ->
              Option.bind (Json.member "audit" reply) Json.to_string_value
              = Some "ok"
            | Proto.Check ->
              Json.member "clean" reply = Some (Json.Bool true)
            | _ -> true
          in
          if not audited then Atomic.incr audit_failures
        | "error"
          when (let code =
                  Option.bind (Json.member "code" reply) Json.to_string_value
                in
                code = Some "injected_fault" || code = Some "watchdog_timeout")
               && resubmits > 0 ->
          (* A fault killed this request cleanly; run it again. *)
          Atomic.incr injected_failures;
          serve_one i (resubmits - 1)
        | st ->
          Atomic.incr errs;
          Printf.eprintf "bench serve: request %d -> %s: %s\n%!" i st
            (Json.to_string reply))
    in
    let rec pump () =
      let i = Atomic.fetch_and_add next 1 in
      if i < !requests then begin
        (try serve_one i 25
         with e ->
           Atomic.incr errs;
           Printf.eprintf "bench serve: request %d raised %s\n%!" i
             (Printexc.to_string e));
        pump ()
      end
    in
    pump ();
    Client.end_session s
  in
  let t0 = Clock.now () in
  let threads = List.init !clients (fun k -> Thread.create client_loop k) in
  List.iter Thread.join threads;
  let wall = Clock.since t0 in
  let busy_retries, transient_retries, giveups =
    Array.fold_left
      (fun (b, t, g) s ->
        let c = Client.counters s in
        ( b + c.Client.retried_busy,
          t + c.Client.retried_transient,
          g + c.Client.gave_up ))
      (0, 0, 0) sessions
  in
  (* Overload: fire queue_max + 8 slow requests at once with no
     retries; the admission bound must turn the excess into busy
     replies. A couple of rounds tolerates scheduling luck. *)
  let overload_burst = !queue + 8 in
  let overload_busy = Atomic.make 0 in
  let overload_rounds = ref 0 in
  (* Under an active fault plan a burst reply can be legitimately
     dropped or garbled, so "no busy observed" would prove nothing:
     the backpressure assertion only runs fault-free. *)
  while (not chaos) && !overload_rounds < 5 && Atomic.get overload_busy = 0 do
    incr overload_rounds;
    let burst () =
      match
        let c = Client.connect sock in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.request c
              { (Proto.request Proto.Map) with
                Proto.circuit = Some "chain:5000" })
      with
      | reply -> if status reply = "busy" then Atomic.incr overload_busy
      | exception _ -> ()
    in
    let ths = List.init overload_burst (fun _ -> Thread.create burst ()) in
    List.iter Thread.join ths
  done;
  (* One stats round-trip for the snapshot, then drain. Through the
     retry layer: under an active plan the stats reply itself can be
     dropped or garbled, and this exchange doubles as the
     daemon-still-alive probe. *)
  let stats_reply =
    let s = Client.session ~timeout_s:30.0 ~retry ~seed:(!seed + 977) sock in
    Fun.protect
      ~finally:(fun () -> Client.end_session s)
      (fun () ->
        match Client.call s (Proto.request Proto.Stats) with
        | Ok j -> j
        | Error m -> failwith ("bench serve: daemon unreachable at end: " ^ m))
  in
  let n_ok = Atomic.get ok in
  let sorted = Array.sub lats 0 !requests in
  Array.sort compare sorted;
  let q p =
    if n_ok = 0 then 0.0
    else begin
      (* Unanswered slots hold 0.0 and sort first; quantiles are over
         the answered suffix. *)
      let base = !requests - n_ok in
      sorted.(base + min (n_ok - 1) (int_of_float (p *. float_of_int n_ok)))
    end
  in
  let mean =
    if n_ok = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 sorted /. float_of_int n_ok
  in
  let throughput = float_of_int n_ok /. Float.max 1e-9 wall in
  let stat_int name =
    match Option.bind (Json.member name stats_reply) Json.to_number with
    | Some x -> int_of_float x
    | None -> 0
  in
  let srv_restarts = stat_int "watchdog_restarts" in
  let srv_deadlined = stat_int "deadline_exceeded" in
  Printf.printf
    "serve tier: %d/%d ok in %.2fs (%.0f req/s, %d clients, %d busy + %d \
     transient retries)\n"
    n_ok !requests wall throughput !clients busy_retries transient_retries;
  Printf.printf
    "  latency p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n"
    (q 0.50 *. 1e3) (q 0.90 *. 1e3) (q 0.99 *. 1e3) (q 1.0 *. 1e3);
  if chaos then
    Printf.printf
      "  chaos: %d injected failures resubmitted, %d degraded replies, %d \
       incorrect, %d watchdog restart(s)\n"
      (Atomic.get injected_failures)
      (Atomic.get degraded_replies)
      (Atomic.get incorrect) srv_restarts
  else
    Printf.printf "  overload: %d busy replies in %d round(s) of %d\n"
      (Atomic.get overload_busy) !overload_rounds overload_burst;
  let doc =
    Json.Obj
      [ ("schema", Json.String bench_schema);
        ("generated", Json.String (Clock.stamp ()));
        ("tier", Json.String "serve");
        ("quick", Json.Bool false);
        ("rows", Json.List []);
        ( "serve",
          Json.Obj
            [ ("requests", Json.Int !requests);
              ("clients", Json.Int !clients);
              ("jobs", Json.Int !jobs);
              ("queue_max", Json.Int !queue);
              ("in_process", Json.Bool in_process);
              ("faults", Json.String (Faultplan.to_string faults));
              ("job_budget_s", Json.Float !budget);
              ("ok", Json.Int n_ok);
              ("errors", Json.Int (Atomic.get errs));
              ("incorrect", Json.Int (Atomic.get incorrect));
              ("busy_retries", Json.Int busy_retries);
              ("transient_retries", Json.Int transient_retries);
              ("retries", Json.Int (busy_retries + transient_retries));
              ("giveups", Json.Int giveups);
              ("injected_failures", Json.Int (Atomic.get injected_failures));
              ("degraded_replies", Json.Int (Atomic.get degraded_replies));
              ("deadline_exceeded", Json.Int srv_deadlined);
              ("watchdog_restarts", Json.Int srv_restarts);
              ("audit_failures", Json.Int (Atomic.get audit_failures));
              ("wall_seconds", Json.Float wall);
              ("throughput_rps", Json.Float throughput);
              ( "latency",
                Json.Obj
                  [ ("mean_ms", Json.Float (mean *. 1e3));
                    ("p50_ms", Json.Float (q 0.50 *. 1e3));
                    ("p90_ms", Json.Float (q 0.90 *. 1e3));
                    ("p99_ms", Json.Float (q 0.99 *. 1e3));
                    ("max_ms", Json.Float (q 1.0 *. 1e3)) ] );
              ( "overload",
                Json.Obj
                  [ ("burst", Json.Int overload_burst);
                    ("rounds", Json.Int !overload_rounds);
                    ("busy", Json.Int (Atomic.get overload_busy)) ] );
              ("daemon_stats", stats_reply) ] ) ]
  in
  let path =
    match !out with Some p -> p | None -> fresh_bench_path "serve_"
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path;
  (* A restart is only promised when the watchdog is armed and the
     plan can actually wedge a job past its budget. *)
  let restart_expected =
    chaos && !budget > 0.0
    && List.mem_assoc "delay_job" (Faultplan.injected faults)
  in
  let failed =
    Atomic.get errs > 0
    || Atomic.get incorrect > 0
    || Atomic.get audit_failures > 0
    || n_ok < !requests
    || ((not chaos) && Atomic.get overload_busy = 0)
    || (restart_expected && srv_restarts = 0)
  in
  if failed then begin
    Printf.printf
      "FAIL: errors=%d incorrect=%d audit_failures=%d ok=%d/%d busy=%d \
       restarts=%d\n"
      (Atomic.get errs)
      (Atomic.get incorrect)
      (Atomic.get audit_failures)
      n_ok !requests
      (Atomic.get overload_busy)
      srv_restarts;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table                   *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let g = Subject.of_network (Iscas_like.c432_like ()) in
  let test_for_table number lib_name =
    let lib = Option.get (Libraries.by_name lib_name) in
    let db = Matchdb.prepare lib in
    Test.make
      ~name:(Printf.sprintf "table%d/dag-map-c432/%s" number lib_name)
      (Staged.stage (fun () -> ignore (Mapper.map Mapper.Dag db g)))
  in
  [ test_for_table 1 "lib2"; test_for_table 2 "44-1"; test_for_table 3 "44-3" ]

let run_bechamel () =
  hr "Bechamel: mapper runtime (one benchmark per table, C432-like)";
  let open Bechamel in
  let open Toolkit in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name wks ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Instance.monotonic_clock wks
          with
          | ols -> begin
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
              Printf.printf "  %-28s %10.3f ms/run\n" name (est /. 1e6)
            | _ -> Printf.printf "  %-28s (no estimate)\n" name
          end)
        results)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.length Sys.argv > 1 && Sys.argv.(1) = "quick" in
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "json" then begin
    (* Machine-readable snapshot: `json [quick] [FILE]` or
       `json huge [nodes=N] [FILE]`. *)
    let rest = Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) in
    let has_prefix p a =
      String.length a > String.length p
      && String.sub a 0 (String.length p) = p
    in
    let is_opt a =
      a = "quick" || a = "huge" || has_prefix "nodes=" a || has_prefix "jobs=" a
    in
    let out = List.find_opt (fun a -> not (is_opt a)) rest in
    if List.mem "huge" rest then begin
      let kv_int prefix default =
        List.fold_left
          (fun acc a ->
            if has_prefix prefix a then
              match
                int_of_string_opt
                  (String.sub a (String.length prefix)
                     (String.length a - String.length prefix))
              with
              | Some n when n > 0 -> n
              | _ -> failwith ("bench json huge: bad " ^ a)
            else acc)
          default rest
      in
      run_json_huge (kv_int "nodes=" 400_000) (kv_int "jobs=" 4) out
    end
    else run_json (List.mem "quick" rest) out;
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "compare" then begin
    if Array.length Sys.argv < 4 then
      failwith "usage: bench compare NEW.json BASELINE.json";
    run_compare_json Sys.argv.(2) Sys.argv.(3);
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then begin
    run_serve_bench
      (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "parallel" then begin
    (* Standalone entry for the multicore section (used by CI and for
       quick speedup measurements). *)
    run_parallel_section ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "super" then begin
    (* Standalone entry for the supergate section. *)
    run_super_section ();
    exit 0
  end;
  Printf.printf
    "Reproduction harness: Delay-Optimal Technology Mapping by DAG Covering\n\
     (Kukimoto, Brayton, Sawkar - DAC 1998). Circuits and libraries are the\n\
     synthetic stand-ins described in DESIGN.md; compare shapes, not absolute\n\
     numbers.\n";
  List.iter
    (fun (name, g) -> Printf.printf "  %-8s %s\n" name (Subject.stats g))
    (Lazy.force subjects);
  run_table 1 "lib2"
    "Paper Table 1 (lib2.genlib): DAG mapping is consistently faster than\n\
     tree mapping at some area cost; CPU overhead is moderate.";
  run_table 2 "44-1"
    "Paper Table 2 (44-1.genlib, 7 gates): e.g. C6288 125 -> 120, C7552 39\n\
     -> 28. Gains exist even with a minimal library.";
  run_table 3 "44-3"
    "Paper Table 3 (44-3.genlib, 625 gates): the gap widens dramatically,\n\
     e.g. C2670 22 -> 10, C6288 125 -> 42: complex gates are used far more\n\
     effectively by DAG covering.";
  run_figure1 ();
  run_figure2 ();
  run_ablation_match_classes ();
  run_ablation_shapes ();
  run_ablation_area_recovery ();
  run_engine_comparison ();
  run_ablation_cut_budget ();
  run_delay_model_validation ();
  run_decomposition_sensitivity ();
  run_complexity_section ();
  run_architecture_study ();
  run_flowmap_section ();
  run_retime_section ();
  run_parallel_section ();
  run_super_section ();
  if not quick then run_bechamel ();
  Printf.printf "\ndone.\n"
