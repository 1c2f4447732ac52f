(* The flat struct-of-arrays core: conversion round-trips exactly,
   derived arrays agree with the boxed graph, and the one labeling
   engine, which runs on the arena, matches the reference DP in
   [Oracle] across circuits, libraries, modes and domain counts. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_check

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

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
(* The labeling engine against the reference DP                        *)
(* ------------------------------------------------------------------ *)

let iscas () =
  [ ("c432", Iscas_like.c432_like ()); ("c880", Iscas_like.c880_like ()) ]

let test_matrix_sequential () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          Oracle.check_modes ~name:(cname ^ "/" ^ lib.Libraries.lib_name) lib g)
        [ Libraries.lib2_like (); Libraries.lib44_1_like ();
          Option.get (Libraries.by_name "44-3") ])
    (iscas ())

let test_matrix_parallel () =
  let g = Subject.of_network (Iscas_like.c432_like ()) in
  List.iter
    (fun lib ->
      Oracle.check_modes ~jobs:[ 1; 2; 4 ] ~name:("c432/" ^ lib.Libraries.lib_name)
        lib g)
    [ Libraries.lib2_like (); Option.get (Libraries.by_name "44-3") ]

(* The cover is a function of the labels: every domain count gives the
   same netlist, and it passes the full audit. *)
let test_matrix_parallel_arena () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              let name =
                Printf.sprintf "%s/%s/%s" cname lib.Libraries.lib_name
                  (Mapper.mode_name mode)
              in
              let seq = Mapper.map mode db g in
              check tbool (name ^ " audit clean") true
                (Check.audit_result ~rounds:4 g seq = []);
              List.iter
                (fun jobs ->
                  let par = Mapper.map ~jobs mode db g in
                  check tbool (Printf.sprintf "%s jobs=%d netlist" name jobs) true
                    (same_netlist seq.Mapper.netlist par.Mapper.netlist))
                [ 2; 4 ])
            Oracle.modes)
        [ Libraries.lib44_1_like (); Libraries.lib2_like () ])
    [ ("ks16", Generators.kogge_stone_adder 16);
      ("mult4", Generators.array_multiplier 4) ]

(* Without ~subject the arena converts back through to_subject; the
   result must be the one Mapper.map gives on the boxed graph. *)
let test_map_without_subject () =
  let net = Generators.kogge_stone_adder 16 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let boxed = Mapper.map Mapper.Dag db g in
  let am = Mapper.map_arena Mapper.Dag db (Arena.of_network net) in
  check tbool "labels" true (boxed.Mapper.labels = am.Mapper.labels);
  check tbool "netlist" true (same_netlist boxed.Mapper.netlist am.Mapper.netlist);
  check tbool "source round-trips" true
    (same_subject g am.Mapper.netlist.Netlist.source)

(* Supergate-augmented library: the bigger pattern space. *)
let test_matrix_super () =
  let lib = Oracle.supergates () in
  let g = Subject.of_network (Generators.kogge_stone_adder 16) in
  Oracle.check_modes ~jobs:[ 1; 2; 4 ] ~name:"ks16/super" lib g;
  let r = Mapper.map Mapper.Dag (Matchdb.prepare lib) g in
  check tbool "supergates actually used" true
    (r.Mapper.run.Mapper.super_gates_used > 0)

let random_circuit seed =
  Subject.of_network
    (Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:70 ())

let qc_differential =
  QCheck.Test.make ~count:12
    ~name:"arena mapping = legacy mapping on random circuits (audited)"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let g = random_circuit seed in
      let lib = Libraries.lib2_like () in
      Oracle.check_modes ~name:(string_of_int seed) lib g;
      let db = Matchdb.prepare lib in
      List.for_all
        (fun mode -> Check.audit_result ~rounds:4 g (Mapper.map mode db g) = [])
        Oracle.modes)

let qc_parallel_arena =
  QCheck.Test.make ~count:8
    ~name:"parallel arena = sequential arena = boxed on random circuits"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      Oracle.check_modes ~jobs:[ 2; 4 ] ~name:(string_of_int seed)
        (Libraries.lib2_like ()) (random_circuit seed);
      true)

(* pi_arrival must flow through the labeler unchanged. *)
let test_pi_arrival () =
  let g = Subject.of_network (Generators.kogge_stone_adder 16) in
  let lib = Libraries.lib2_like () in
  let pi_arrival pi = float_of_int (pi mod 7) *. -0.3 in
  List.iter
    (fun mode ->
      Oracle.check ~pi_arrival ~jobs:[ 1; 4 ] ~name:"ks16" mode
        (Matchdb.prepare lib) g)
    Oracle.modes

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
    (match Mapper.label Mapper.Dag db a with
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
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map_arena ~subject:g Mapper.Dag db a in
  check tbool "chain100k audit clean" true (Check.audit_result g seq = []);
  (* Chunking stress: 100k levels of width ~1 through the parallel
     labeler — every level is below the fan-out threshold, so the
     whole sweep must run on the calling domain with zero cursor
     traffic, no recursion on the depth, and bit-identical output. *)
  let par = Mapper.map_arena ~jobs:4 ~subject:g Mapper.Dag db a in
  let stats = par.Mapper.par in
  check tbool "chain100k jobs=4 labels" true (seq.Mapper.labels = par.Mapper.labels);
  check tbool "chain100k jobs=4 netlist" true
    (same_netlist seq.Mapper.netlist par.Mapper.netlist);
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
  let am = Mapper.map_arena ~subject:g Mapper.Dag db a in
  check tbool "soc60k audit clean" true (Check.audit_result g am = [])

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
    List.iter
      (fun jobs ->
        let r = Mapper.map_arena ~jobs ~subject:g Mapper.Dag db a in
        let tag = Printf.sprintf "%s jobs=%d" name jobs in
        (* All three audits, no stack overflow. *)
        check tbool (tag ^ " structural") true
          (Check.structural r.Mapper.netlist = []);
        check tbool (tag ^ " delay audit") true
          (Check.delay ~predicted:(Mapper.predicted_arrivals r) r.Mapper.netlist
           = []);
        check tbool (tag ^ " functional audit") true
          (Check.functional g r.Mapper.netlist = []))
      [ 1; 4 ]
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
