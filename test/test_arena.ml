(* The flat subject graph: the builder's output keeps raw nodes and
   hashes as the decomposition expects, its derived level arrays are
   consistent and memoized, and the one labeling engine matches the
   reference DP in [Oracle] across circuits, libraries, modes and
   domain counts. *)

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
(* Conversion into the flat graph                                      *)
(* ------------------------------------------------------------------ *)

(* Builder.finish copies the builder's vectors into the flat graph: raw
   (non-hashed) nodes must come out node for node, and the [Arena]
   alias must hand the graph back unchanged rather than re-hash it. *)
let test_raw_duplicates () =
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
  check tbool "raw nand fresh" true (n1 <> n2);
  check tbool "raw inv pair kept" true (i2 <> n1);
  check tint "duplicates preserved" 6 (Subject.num_nodes g);
  let fanins = Alcotest.list tint in
  check fanins "n1 fanins" [ x; y ] (Subject.fanins g n1);
  check fanins "n2 fanins" [ x; y ] (Subject.fanins g n2);
  check fanins "i1 fanin" [ n1 ] (Subject.fanins g i1);
  check fanins "i2 fanin" [ i1 ] (Subject.fanins g i2);
  check tbool "outputs" true (g.Subject.outputs = [| ("o1", i2); ("o2", n2) |]);
  check tbool "Arena.to_subject is the identity" true (Arena.to_subject g == g)

(* The hashing decisions the decomposition relies on (commutative nand,
   nand x x = inv x, inverter-pair cancellation) must keep each
   output's function. *)
let test_builder_semantics () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let nxy = Subject.Builder.nand b x y in
  check tint "commutative nand" nxy (Subject.Builder.nand b y x);
  let ix = Subject.Builder.inv b x in
  check tint "nand x x = inv x" ix (Subject.Builder.nand b x x);
  check tint "inv hashed" ix (Subject.Builder.inv b x);
  let iy = Subject.Builder.inv b y in
  check tint "inverter pair cancels" y (Subject.Builder.inv b iy);
  check tint "cancelled pair sits on the pi" x
    (Subject.Builder.inv b (Subject.Builder.nand b x x));
  Subject.Builder.output b "nand" (Subject.Builder.nand b y x);
  Subject.Builder.output b "notx" (Subject.Builder.nand b x x);
  Subject.Builder.output b "y" (Subject.Builder.inv b iy);
  Subject.Builder.output b "and" (Subject.Builder.inv b nxy);
  let g = Subject.Builder.finish b in
  check tint "node count" 6 (Subject.num_nodes g);
  check tbool "hashed nand kind" true (Subject.kind g nxy = Subject.Snand (x, y));
  for m = 0 to 3 do
    let vx = m land 1 <> 0 and vy = m land 2 <> 0 in
    let got = Subject.eval g [| vx; vy |] in
    let expect name v =
      check tbool (Printf.sprintf "%s at x=%b y=%b" name vx vy) v
        (List.assoc name got)
    in
    expect "nand" (not (vx && vy));
    expect "notx" (not vx);
    expect "y" vy;
    expect "and" (vx && vy)
  done

(* ------------------------------------------------------------------ *)
(* Derived arrays                                                      *)
(* ------------------------------------------------------------------ *)

let test_derived_arrays () =
  List.iter
    (fun (name, net) ->
      let g = Subject.of_network net in
      (* level_ranges is the dense form of by_level. *)
      let order, starts = Subject.level_ranges g in
      let lv = Subject.levels g in
      check tint (name ^ " ranges cover all") (Subject.num_nodes g)
        (Array.length order);
      check tint (name ^ " starts end") (Subject.num_nodes g)
        starts.(Array.length starts - 1);
      Array.iteri
        (fun l group ->
          check tbool
            (Printf.sprintf "%s level %d slice" name l)
            true
            (group = Array.sub order starts.(l) (starts.(l + 1) - starts.(l))))
        (Subject.by_level g);
      Array.iteri
        (fun pos node ->
          let l = lv.(node) in
          check tbool
            (Printf.sprintf "%s order[%d] in its range" name pos)
            true
            (pos >= starts.(l) && pos < starts.(l + 1)))
        order;
      (* Levels, fanouts and depth against their definitions. *)
      let fanouts = Array.make (Subject.num_nodes g) 0 in
      Array.iter (fun (_, node) -> fanouts.(node) <- fanouts.(node) + 1)
        g.Subject.outputs;
      for i = 0 to Subject.num_nodes g - 1 do
        let fanins = Subject.fanins g i in
        List.iter (fun f -> fanouts.(f) <- fanouts.(f) + 1) fanins;
        check tint
          (Printf.sprintf "%s level of %d" name i)
          (List.fold_left (fun acc f -> max acc (lv.(f) + 1)) 0 fanins)
          lv.(i)
      done;
      check tbool (name ^ " fanouts") true (Subject.fanout_counts g = fanouts);
      check tint (name ^ " depth")
        (Array.fold_left (fun acc (_, node) -> max acc lv.(node)) 0
           g.Subject.outputs)
        (Subject.depth g);
      (* The O(n) levels sweep runs once per graph: repeated calls —
         and the level_ranges/by_level/depth derivations on top —
         share one memoized array instead of recomputing it. *)
      check tbool (name ^ " levels memoized") true
        (Subject.levels g == Subject.levels g);
      check tbool (name ^ " memoized levels unchanged") true
        (Subject.levels g = lv))
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
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n = Subject.Builder.raw_nand b x y in
  Subject.Builder.output b "o" n;
  let g = Subject.Builder.finish b in
  let db = Matchdb.prepare inv_only in
  check tbool "Unmappable raises" true
    (match Mapper.label Mapper.Dag db g with
     | _ -> false
     | exception Mapper.Unmappable _ -> true)

(* ------------------------------------------------------------------ *)
(* Scale and stack safety                                              *)
(* ------------------------------------------------------------------ *)

(* The 100k-deep chain pattern from the earlier traversal-safety PRs:
   build, derive, map, verify — no recursion anywhere on the node
   count. *)
let test_deep_chain_100k () =
  let depth = 100_000 in
  let g = Subject.of_network (Generators.nand_chain depth) in
  check tint "chain depth" depth (Subject.depth g);
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map Mapper.Dag db g in
  check tbool "chain100k audit clean" true (Check.audit_result g seq = []);
  (* Chunking stress: 100k levels of width ~1 through the parallel
     labeler — every level is below the fan-out threshold, so the
     whole sweep must run on the calling domain with zero cursor
     traffic, no recursion on the depth, and bit-identical output. *)
  let par = Mapper.map ~jobs:4 Mapper.Dag db g in
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
  let g =
    Subject.of_network (Generators.synthetic_soc ~seed:3 ~nodes:60_000 ())
  in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let r = Mapper.map Mapper.Dag db g in
  check tbool "soc60k audit clean" true (Check.audit_result g r = [])

let million_case name build =
  if not (huge_enabled ()) then
    Printf.printf "[test_arena] %s skipped (set DAGMAP_HUGE=1 to run)\n%!" name
  else begin
    let g = Subject.of_network (build ()) in
    check tbool (name ^ " has 1M+ subject nodes") true
      (Subject.num_nodes g >= 1_000_000);
    let db = Matchdb.prepare (Libraries.minimal ()) in
    List.iter
      (fun jobs ->
        let r = Mapper.map ~jobs Mapper.Dag db g in
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
        [ Alcotest.test_case "raw duplicates" `Quick test_raw_duplicates;
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
