(* Arena differential suite: the flat struct-of-arrays core must be
   indistinguishable from the legacy record-based path — conversion
   round-trips exactly, derived arrays agree, and arena-backed mapping
   is bit-identical (labels, best matches, cover structure, stats)
   across the full mode x jobs x cache x library matrix. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_super
open Dagmap_check

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let modes = [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ]

let libs () =
  [ Libraries.minimal (); Libraries.lib44_1_like (); Libraries.lib2_like () ]

let fixed_circuits () =
  [ ("adder16", Generators.ripple_adder 16);
    ("ks16", Generators.kogge_stone_adder 16);
    ("cla16", Generators.carry_lookahead_adder 16);
    ("mult4", Generators.array_multiplier 4) ]

let huge_enabled () =
  match Sys.getenv_opt "DAGMAP_HUGE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Equality helpers                                                    *)
(* ------------------------------------------------------------------ *)

let same_subject (g1 : Subject.t) (g2 : Subject.t) =
  g1.Subject.kinds = g2.Subject.kinds
  && g1.Subject.names = g2.Subject.names
  && g1.Subject.outputs = g2.Subject.outputs
  && g1.Subject.const_outputs = g2.Subject.const_outputs
  && g1.Subject.num_pis = g2.Subject.num_pis
  && g1.Subject.n_latches = g2.Subject.n_latches

let same_arena (a1 : Arena.t) (a2 : Arena.t) =
  a1.Arena.n = a2.Arena.n
  && (let ok = ref true in
      for i = 0 to a1.Arena.n - 1 do
        if
          Arena.fanin0 a1 i <> Arena.fanin0 a2 i
          || Arena.fanin1 a1 i <> Arena.fanin1 a2 i
        then ok := false
      done;
      !ok)
  && a1.Arena.pi_nodes = a2.Arena.pi_nodes
  && a1.Arena.pi_names = a2.Arena.pi_names
  && a1.Arena.outputs = a2.Arena.outputs
  && a1.Arena.const_outputs = a2.Arena.const_outputs
  && a1.Arena.num_pis = a2.Arena.num_pis
  && a1.Arena.n_latches = a2.Arena.n_latches

let same_best (b1 : Matcher.mtch option array) (b2 : Matcher.mtch option array) =
  Array.length b1 = Array.length b2
  && Array.for_all2
       (fun m1 m2 ->
         match m1, m2 with
         | None, None -> true
         | Some m1, Some m2 ->
           (* Physically the same pattern: both paths enumerate out of
              the same Matchdb shape index. *)
           m1.Matcher.pattern == m2.Matcher.pattern
           && m1.Matcher.pins = m2.Matcher.pins
           && m1.Matcher.covered = m2.Matcher.covered
         | _ -> false)
       b1 b2

let same_netlist (n1 : Netlist.t) (n2 : Netlist.t) =
  Array.length n1.Netlist.instances = Array.length n2.Netlist.instances
  && Array.for_all2
       (fun (i1 : Netlist.instance) (i2 : Netlist.instance) ->
         i1.Netlist.inst_id = i2.Netlist.inst_id
         && i1.Netlist.gate == i2.Netlist.gate
         && i1.Netlist.inputs = i2.Netlist.inputs
         && i1.Netlist.subject_root = i2.Netlist.subject_root
         && i1.Netlist.covers = i2.Netlist.covers)
       n1.Netlist.instances n2.Netlist.instances
  && n1.Netlist.outputs = n2.Netlist.outputs

(* The core bit-identity assertion: legacy result vs arena result. *)
let check_same_result name (seq : Mapper.result) (am : Mapper.result) =
  check tbool (name ^ " labels") true (seq.Mapper.labels = am.Mapper.labels);
  check tbool (name ^ " best") true (same_best seq.Mapper.best am.Mapper.best);
  check tbool (name ^ " netlist") true
    (same_netlist seq.Mapper.netlist am.Mapper.netlist);
  check (Alcotest.float 0.0) (name ^ " delay") (Mapper.optimal_delay seq)
    (Mapper.optimal_delay am);
  check (Alcotest.float 0.0) (name ^ " area")
    (Netlist.area seq.Mapper.netlist)
    (Netlist.area am.Mapper.netlist);
  check tint (name ^ " matches tried") seq.Mapper.run.Mapper.matches_tried
    am.Mapper.run.Mapper.matches_tried;
  check tint (name ^ " super matches tried")
    seq.Mapper.run.Mapper.super_matches_tried
    am.Mapper.run.Mapper.super_matches_tried;
  check tint (name ^ " super gates used")
    seq.Mapper.run.Mapper.super_gates_used
    am.Mapper.run.Mapper.super_gates_used;
  check tint (name ^ " cache lookups") seq.Mapper.run.Mapper.cache_lookups
    am.Mapper.run.Mapper.cache_lookups;
  check tint (name ^ " cache hits") seq.Mapper.run.Mapper.cache_hits
    am.Mapper.run.Mapper.cache_hits;
  check tint (name ^ " cache misses") seq.Mapper.run.Mapper.cache_misses
    am.Mapper.run.Mapper.cache_misses

(* ------------------------------------------------------------------ *)
(* Conversion round-trips                                              *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_fixed () =
  let circuits =
    fixed_circuits ()
    @ [ ("barrel8", Generators.barrel_shifter 8);
        ("lfsr8", Generators.lfsr 8);  (* sequential: latch boundaries *)
        ("rand", Generators.random_dag ~seed:7 ~nodes:120 ()) ]
  in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (sname, style) ->
          let g = Subject.of_network ~style net in
          let a = Arena.of_subject g in
          check tbool
            (Printf.sprintf "%s/%s to_subject (of_subject g) = g" name sname)
            true
            (same_subject g (Arena.to_subject a));
          check tbool
            (Printf.sprintf "%s/%s of_network = of_subject . of_network" name
               sname)
            true
            (same_arena a (Arena.of_network ~style net)))
        [ ("bal", Subject.Balanced);
          ("left", Subject.Left_skew);
          ("right", Subject.Right_skew) ])
    circuits

let qc_roundtrip =
  QCheck.Test.make ~count:30 ~name:"arena <-> subject round-trip on random DAGs"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:6 ~nodes:80 () in
      let g = Subject.of_network net in
      let a = Arena.of_network net in
      same_arena a (Arena.of_subject g)
      && same_subject g (Arena.to_subject a))

(* Raw (non-hashed) nodes must survive the round-trip node-for-node:
   of_subject must not re-hash. *)
let test_roundtrip_raw_duplicates () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n1 = Subject.Builder.raw_nand b x y in
  let n2 = Subject.Builder.raw_nand b x y in
  let i1 = Subject.Builder.raw_inv b n1 in
  let i2 = Subject.Builder.raw_inv b i1 in
  Subject.Builder.output b "o1" i2;
  Subject.Builder.output b "o2" n2;
  let g = Subject.Builder.finish b in
  let a = Arena.of_subject g in
  check tint "duplicates preserved" (Subject.num_nodes g) (Arena.num_nodes a);
  check tbool "raw round-trip" true (same_subject g (Arena.to_subject a))

(* The arena builder must make the same hashing decisions as
   Subject.Builder (commutative nand, nand x x = inv, inverter-pair
   cancellation). *)
let test_builder_semantics () =
  let sb = Subject.Builder.create () in
  let ab = Arena.Builder.create () in
  let sx = Subject.Builder.pi sb "x" and ax = Arena.Builder.pi ab "x" in
  let sy = Subject.Builder.pi sb "y" and ay = Arena.Builder.pi ab "y" in
  let pairs =
    [ (Subject.Builder.nand sb sx sy, Arena.Builder.nand ab ax ay);
      (Subject.Builder.nand sb sy sx, Arena.Builder.nand ab ay ax);
      (Subject.Builder.nand sb sx sx, Arena.Builder.nand ab ax ax);
      (Subject.Builder.inv sb sx, Arena.Builder.inv ab ax);
      (Subject.Builder.inv sb (Subject.Builder.inv sb sy),
       Arena.Builder.inv ab (Arena.Builder.inv ab ay)) ]
  in
  List.iteri
    (fun i (s, a) -> check tint (Printf.sprintf "builder op %d" i) s a)
    pairs;
  Subject.Builder.output sb "o" (List.hd pairs |> fst);
  Arena.Builder.output ab "o" (List.hd pairs |> snd);
  let g = Subject.Builder.finish sb in
  let a = Arena.Builder.finish ab in
  check tbool "same graph" true (same_arena (Arena.of_subject g) a)

(* ------------------------------------------------------------------ *)
(* Derived arrays                                                      *)
(* ------------------------------------------------------------------ *)

let test_derived_arrays () =
  List.iter
    (fun (name, net) ->
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      check tbool (name ^ " levels") true (Subject.levels g = Arena.levels a);
      check tbool (name ^ " fanouts") true
        (Subject.fanout_counts g = Arena.fanout_counts a);
      check tint (name ^ " depth") (Subject.depth g) (Arena.depth a);
      check tbool (name ^ " by_level") true
        (Subject.by_level g = Arena.by_level a);
      (* level_ranges is the dense form of by_level. *)
      let order, starts = Arena.level_ranges a in
      let lv = Arena.levels a in
      check tint (name ^ " ranges cover all") (Arena.num_nodes a)
        (Array.length order);
      check tint (name ^ " starts end") (Arena.num_nodes a)
        starts.(Array.length starts - 1);
      Array.iteri
        (fun l group ->
          check tbool
            (Printf.sprintf "%s level %d slice" name l)
            true
            (group = Array.sub order starts.(l) (starts.(l + 1) - starts.(l))))
        (Arena.by_level a);
      Array.iteri
        (fun pos node ->
          let l = lv.(node) in
          check tbool
            (Printf.sprintf "%s order[%d] in its range" name pos)
            true
            (pos >= starts.(l) && pos < starts.(l + 1)))
        order;
      (* The O(n) levels sweep runs once per arena: repeated calls —
         and the level_ranges/by_level/depth derivations on top —
         share one memoized array instead of recomputing it. *)
      check tbool (name ^ " levels memoized") true
        (Arena.levels a == Arena.levels a);
      check tbool (name ^ " memoized levels unchanged") true
        (Subject.levels g = Arena.levels a);
      check tint (name ^ " depth stable") (Subject.depth g) (Arena.depth a);
      check tbool (name ^ " by_level stable") true
        (Subject.by_level g = Arena.by_level a))
    (fixed_circuits ())

(* ------------------------------------------------------------------ *)
(* Differential mapping matrix                                         *)
(* ------------------------------------------------------------------ *)

let test_matrix_sequential () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              List.iter
                (fun cache ->
                  let name =
                    Printf.sprintf "%s/%s/%s cache=%b" cname
                      lib.Libraries.lib_name (Mapper.mode_name mode) cache
                  in
                  let seq = Mapper.map ~cache mode db g in
                  let am = Arena_map.map ~cache ~subject:g mode db a in
                  check_same_result name seq am)
                [ true; false ])
            modes)
        (libs ()))
    (fixed_circuits ())

let test_matrix_parallel () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              List.iter
                (fun cache ->
                  let am = Arena_map.map ~cache ~subject:g mode db a in
                  List.iter
                    (fun jobs ->
                      let par, _ = Parmap.map ~jobs ~cache mode db g in
                      let name =
                        Printf.sprintf "%s/%s/%s jobs=%d cache=%b" cname
                          lib.Libraries.lib_name (Mapper.mode_name mode) jobs
                          cache
                      in
                      check tbool (name ^ " labels") true
                        (par.Mapper.labels = am.Mapper.labels);
                      check tbool (name ^ " best") true
                        (same_best par.Mapper.best am.Mapper.best);
                      check tbool (name ^ " netlist") true
                        (same_netlist par.Mapper.netlist am.Mapper.netlist))
                    [ 1; 2; 4 ])
                [ true; false ])
            modes)
        [ Libraries.minimal (); Libraries.lib2_like () ])
    [ ("ks16", Generators.kogge_stone_adder 16);
      ("mult4", Generators.array_multiplier 4) ]

(* Parallel-arena vs sequential-arena: labels, best matches, netlist
   and the deterministic counters must be bit-identical for any job
   count. Cache hit/miss splits are NOT compared — which worker's
   cache sees a structure first depends on the schedule (and even
   sequentially on visit order); only totals of work done are
   schedule-independent. *)
let check_par_arena name (am : Mapper.result) (par : Mapper.result) =
  check tbool (name ^ " labels") true (par.Mapper.labels = am.Mapper.labels);
  check tbool (name ^ " best") true (same_best par.Mapper.best am.Mapper.best);
  check tbool (name ^ " netlist") true
    (same_netlist par.Mapper.netlist am.Mapper.netlist);
  check (Alcotest.float 0.0) (name ^ " delay") (Mapper.optimal_delay am)
    (Mapper.optimal_delay par);
  check (Alcotest.float 0.0) (name ^ " area")
    (Netlist.area am.Mapper.netlist)
    (Netlist.area par.Mapper.netlist);
  check tint (name ^ " matches tried") am.Mapper.run.Mapper.matches_tried
    par.Mapper.run.Mapper.matches_tried;
  check tint (name ^ " super matches tried")
    am.Mapper.run.Mapper.super_matches_tried
    par.Mapper.run.Mapper.super_matches_tried;
  check tint (name ^ " super gates used")
    am.Mapper.run.Mapper.super_gates_used
    par.Mapper.run.Mapper.super_gates_used

(* The tentpole matrix: Parmap.map_arena (dense level slices across
   domains) = Arena_map.map (sequential) = Mapper.map (boxed), across
   mode x jobs x cache x library. *)
let test_matrix_parallel_arena () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              let boxed = Mapper.map mode db g in
              List.iter
                (fun cache ->
                  let am = Arena_map.map ~cache ~subject:g mode db a in
                  List.iter
                    (fun jobs ->
                      let name =
                        Printf.sprintf "%s/%s/%s jobs=%d cache=%b" cname
                          lib.Libraries.lib_name (Mapper.mode_name mode) jobs
                          cache
                      in
                      let par, _ =
                        Parmap.map_arena ~jobs ~cache ~subject:g mode db a
                      in
                      check_par_arena name am par;
                      check tbool (name ^ " = boxed labels") true
                        (par.Mapper.labels = boxed.Mapper.labels))
                    [ 1; 2; 4 ])
                [ true; false ])
            modes)
        [ Libraries.lib44_1_like (); Libraries.lib2_like () ])
    [ ("ks16", Generators.kogge_stone_adder 16);
      ("mult4", Generators.array_multiplier 4) ]

(* Without ~subject the arena converts back through to_subject; the
   netlist must still be structurally identical. *)
let test_map_without_subject () =
  let net = Generators.kogge_stone_adder 16 in
  let g = Subject.of_network net in
  let a = Arena.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let am = Arena_map.map Mapper.Dag db a in
  check_same_result "to_subject path" seq am;
  check tbool "source round-trips" true
    (same_subject g am.Mapper.netlist.Netlist.source)

(* Supergate-augmented library: the arena path must agree through the
   bigger pattern space too. *)
let test_matrix_super () =
  let base = Libraries.lib44_1_like () in
  let bounds = { Superenum.default_bounds with max_pins = 4; max_size = 3 } in
  let sgl, _ = Superlib.make ~bounds base in
  let aug = Superlib.augment base sgl in
  let db = Matchdb.prepare aug in
  let net = Generators.kogge_stone_adder 16 in
  let g = Subject.of_network net in
  let a = Arena.of_subject g in
  List.iter
    (fun mode ->
      List.iter
        (fun cache ->
          let name =
            Printf.sprintf "super/%s cache=%b" (Mapper.mode_name mode) cache
          in
          let seq = Mapper.map ~cache mode db g in
          let am = Arena_map.map ~cache ~subject:g mode db a in
          check_same_result name seq am;
          if mode = Mapper.Dag then
            check tbool (name ^ " supergates actually used") true
              (am.Mapper.run.Mapper.super_gates_used > 0);
          (* The parallel arena labeler must agree through the bigger
             supergate pattern space too. *)
          List.iter
            (fun jobs ->
              let par, _ = Parmap.map_arena ~jobs ~cache ~subject:g mode db a in
              check_par_arena (Printf.sprintf "%s jobs=%d" name jobs) am par)
            [ 2; 4 ])
        [ true; false ])
    modes

let qc_differential =
  QCheck.Test.make ~count:12
    ~name:"arena mapping = legacy mapping on random circuits (audited)"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:70 () in
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      List.for_all
        (fun mode ->
          let seq = Mapper.map mode db g in
          let am = Arena_map.map ~subject:g mode db a in
          seq.Mapper.labels = am.Mapper.labels
          && same_best seq.Mapper.best am.Mapper.best
          && same_netlist seq.Mapper.netlist am.Mapper.netlist
          && Check.audit_result ~rounds:4 g am = [])
        modes)

(* Three-way parity on random circuits: parallel-arena =
   sequential-arena = boxed Mapper, across jobs x cache. *)
let qc_parallel_arena =
  QCheck.Test.make ~count:8
    ~name:"parallel arena = sequential arena = boxed on random circuits"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:70 () in
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      List.for_all
        (fun mode ->
          let boxed = Mapper.map mode db g in
          List.for_all
            (fun cache ->
              let am = Arena_map.map ~cache ~subject:g mode db a in
              am.Mapper.labels = boxed.Mapper.labels
              && List.for_all
                   (fun jobs ->
                     let par, _ =
                       Parmap.map_arena ~jobs ~cache ~subject:g mode db a
                     in
                     par.Mapper.labels = am.Mapper.labels
                     && same_best par.Mapper.best am.Mapper.best
                     && same_netlist par.Mapper.netlist am.Mapper.netlist)
                   [ 1; 2; 4 ])
            [ true; false ])
        modes)

(* pi_arrival must flow through the arena labeler unchanged. *)
let test_pi_arrival () =
  let net = Generators.carry_lookahead_adder 8 in
  let g = Subject.of_network net in
  let a = Arena.of_subject g in
  let db = Matchdb.prepare (Libraries.lib44_1_like ()) in
  let arr pi = float_of_int (pi mod 5) *. 0.7 in
  let seq_labels, seq_best, seq_tried =
    Mapper.label ~pi_arrival:arr Mapper.Dag db g
  in
  let labels, best, tried = Arena_map.label ~pi_arrival:arr Mapper.Dag db a in
  let labels_arr =
    Array.init (Bigarray.Array1.dim labels) (Bigarray.Array1.get labels)
  in
  check tbool "pi_arrival labels" true (seq_labels = labels_arr);
  check tbool "pi_arrival best" true (same_best seq_best best);
  check tbool "pi_arrival tried" true (seq_tried = tried)

let test_unmappable () =
  let inv_only =
    Libraries.make "invonly"
      (Genlib_parser.parse_string
         "GATE inv 1 O=!a; PIN a INV 1 999 1.0 0.1 1.0 0.1")
  in
  let b = Arena.Builder.create () in
  let x = Arena.Builder.pi b "x" in
  let y = Arena.Builder.pi b "y" in
  let n = Arena.Builder.raw_nand b x y in
  Arena.Builder.output b "o" n;
  let a = Arena.Builder.finish b in
  let db = Matchdb.prepare inv_only in
  check tbool "Unmappable raises" true
    (match Arena_map.label Mapper.Dag db a with
     | _ -> false
     | exception Mapper.Unmappable _ -> true)

(* ------------------------------------------------------------------ *)
(* Scale and stack safety                                              *)
(* ------------------------------------------------------------------ *)

(* The 100k-deep chain pattern from the earlier traversal-safety PRs,
   now through the arena: build, derive, map, verify — no recursion
   anywhere on the node count. *)
let test_deep_chain_100k () =
  let depth = 100_000 in
  let net = Generators.nand_chain depth in
  let g = Subject.of_network net in
  let a = Arena.of_network net in
  check tbool "arena = subject" true (same_arena a (Arena.of_subject g));
  check tint "chain depth" depth (Arena.depth a);
  let _ = Arena.level_ranges a in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let am = Arena_map.map ~subject:g Mapper.Dag db a in
  check_same_result "chain100k" seq am;
  check tbool "chain100k audit clean" true
    (Check.audit_result ~rounds:2 g am = []);
  (* Chunking stress: 100k levels of width ~1 through the parallel
     labeler — every level is below the fan-out threshold, so the
     whole sweep must run on the calling domain with zero cursor
     traffic, no recursion on the depth, and bit-identical output. *)
  let par, stats = Parmap.map_arena ~jobs:4 ~subject:g Mapper.Dag db a in
  check_par_arena "chain100k jobs=4" am par;
  check tint "chain100k no parallel levels" 0 stats.Parmap.parallel_levels;
  check tint "chain100k no chunks" 0 stats.Parmap.chunks;
  check tbool "chain100k one timing per level" true
    (Array.length stats.Parmap.level_seconds = stats.Parmap.levels)

(* A mid-size SoC runs the whole stack end-to-end on every test run;
   the million-node versions below are gated behind DAGMAP_HUGE=1
   (CI runs a ~100k bench smoke instead, see .github/workflows). *)
let test_soc_end_to_end () =
  let net = Generators.synthetic_soc ~seed:3 ~nodes:60_000 () in
  let g = Subject.of_network net in
  let a = Arena.of_network net in
  check tbool "soc arena = subject" true (same_arena a (Arena.of_subject g));
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let am = Arena_map.map ~subject:g Mapper.Dag db a in
  check_same_result "soc60k" seq am;
  check tbool "soc60k audit clean" true
    (Check.audit_result ~rounds:2 g am = [])

let million_case name build =
  if not (huge_enabled ()) then
    Printf.printf "[test_arena] %s skipped (set DAGMAP_HUGE=1 to run)\n%!" name
  else begin
    let net = build () in
    let a = Arena.of_network net in
    check tbool (name ^ " has 1M+ subject nodes") true
      (Arena.num_nodes a >= 1_000_000);
    let g = Arena.to_subject a in
    let db = Matchdb.prepare (Libraries.minimal ()) in
    let am = Arena_map.map ~subject:g Mapper.Dag db a in
    (* Satellite contract: Check.lint + delay audit, no stack
       overflow. (Functional sim is exercised at the 60k tier.) *)
    check tbool (name ^ " structural") true
      (Check.structural am.Mapper.netlist = []);
    check tbool (name ^ " delay audit") true
      (Check.delay ~predicted:(Mapper.predicted_arrivals am) am.Mapper.netlist
       = []);
    (* The 4-domain labeler must survive the same scale and agree
       bit-for-bit, and its cover must pass the same audits. *)
    let par, _ = Parmap.map_arena ~jobs:4 ~subject:g Mapper.Dag db a in
    check_par_arena (name ^ " jobs=4") am par;
    check tbool (name ^ " jobs=4 structural") true
      (Check.structural par.Mapper.netlist = []);
    check tbool (name ^ " jobs=4 delay audit") true
      (Check.delay
         ~predicted:(Mapper.predicted_arrivals par)
         par.Mapper.netlist
       = [])
  end

let test_million_chain () =
  million_case "chain1M" (fun () -> Generators.nand_chain 1_000_000)

let test_million_soc () =
  million_case "soc1M" (fun () ->
      Generators.synthetic_soc ~seed:1 ~nodes:400_000 ())

let () =
  Alcotest.run "arena"
    [ ( "convert",
        [ Alcotest.test_case "fixed round-trips x styles" `Quick
            test_roundtrip_fixed;
          QCheck_alcotest.to_alcotest qc_roundtrip;
          Alcotest.test_case "raw duplicates" `Quick
            test_roundtrip_raw_duplicates;
          Alcotest.test_case "builder semantics" `Quick test_builder_semantics
        ] );
      ( "derived",
        [ Alcotest.test_case "levels/fanouts/by_level/ranges" `Quick
            test_derived_arrays ] );
      ( "differential",
        [ Alcotest.test_case "sequential matrix" `Quick test_matrix_sequential;
          Alcotest.test_case "parallel matrix jobs 1/2/4" `Quick
            test_matrix_parallel;
          Alcotest.test_case "parallel-arena matrix jobs 1/2/4" `Quick
            test_matrix_parallel_arena;
          Alcotest.test_case "to_subject path" `Quick test_map_without_subject;
          Alcotest.test_case "supergate library" `Quick test_matrix_super;
          QCheck_alcotest.to_alcotest qc_differential;
          QCheck_alcotest.to_alcotest qc_parallel_arena;
          Alcotest.test_case "pi_arrival passthrough" `Quick test_pi_arrival;
          Alcotest.test_case "Unmappable propagates" `Quick test_unmappable ] );
      ( "scale",
        [ Alcotest.test_case "100k-deep chain" `Quick test_deep_chain_100k;
          Alcotest.test_case "60k-node SoC end-to-end" `Quick
            test_soc_end_to_end;
          Alcotest.test_case "1M-node chain (DAGMAP_HUGE)" `Slow
            test_million_chain;
          Alcotest.test_case "1M-node SoC (DAGMAP_HUGE)" `Slow
            test_million_soc ] ) ]
