(* FlowMap: max-flow plumbing, label optimality against a brute-force
   cut-enumeration DP, LUT cover structure, and equivalence. *)

open Dagmap_subject
open Dagmap_flowmap
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- max-flow ------------------------------------------------------- *)

let test_maxflow_simple () =
  (* s -> a -> t and s -> b -> t, unit capacities: flow 2. *)
  let net = Maxflow.create 4 in
  let s = 0 and a = 1 and b = 2 and t = 3 in
  Maxflow.add_edge net s a 1;
  Maxflow.add_edge net s b 1;
  Maxflow.add_edge net a t 1;
  Maxflow.add_edge net b t 1;
  check tint "flow 2" 2 (Maxflow.max_flow_bounded net ~source:s ~sink:t ~bound:10)

let test_maxflow_bottleneck () =
  (* Diamond with a shared middle edge of capacity 1. *)
  let net = Maxflow.create 6 in
  Maxflow.add_edge net 0 1 1;
  Maxflow.add_edge net 0 2 1;
  Maxflow.add_edge net 1 3 1;
  Maxflow.add_edge net 2 3 1;
  Maxflow.add_edge net 3 4 1;   (* bottleneck *)
  Maxflow.add_edge net 4 5 Maxflow.infinite;
  check tint "flow 1" 1 (Maxflow.max_flow_bounded net ~source:0 ~sink:5 ~bound:10)

let test_maxflow_bound_early_exit () =
  (* Wide parallel structure; ask only whether flow exceeds 2. *)
  let n = 12 in
  let net = Maxflow.create (n + 2) in
  for i = 1 to n do
    Maxflow.add_edge net 0 i 1;
    Maxflow.add_edge net i (n + 1) 1
  done;
  check tint "bound+1 when exceeded" 3
    (Maxflow.max_flow_bounded net ~source:0 ~sink:(n + 1) ~bound:2)

let test_min_cut_side () =
  let net = Maxflow.create 4 in
  Maxflow.add_edge net 0 1 1;
  Maxflow.add_edge net 1 2 1;
  Maxflow.add_edge net 2 3 1;
  ignore (Maxflow.max_flow_bounded net ~source:0 ~sink:3 ~bound:10);
  let side = Maxflow.min_cut_side net ~source:0 in
  check tbool "source side" true side.(0);
  check tbool "sink not on source side" false side.(3)

(* --- brute-force optimal depth (cut enumeration DP) ----------------- *)

module IntSet = Set.Make (Int)

(* All k-feasible cuts of each node by the classical merge
   enumeration; optimal depth by DP over cuts. *)
let brute_force_depths g k =
  let n = Subject.num_nodes g in
  let cuts : IntSet.t list array = Array.make n [] in
  let label = Array.make n 0 in
  for t = 0 to n - 1 do
    match Subject.kind g t with
    | Subject.Spi ->
      cuts.(t) <- [ IntSet.singleton t ];
      label.(t) <- 0
    | Subject.Sinv _ | Subject.Snand _ ->
      let fanins = Subject.fanins g t in
      let fanin_cuts =
        List.map (fun f -> IntSet.singleton f :: cuts.(f)) fanins
      in
      let merged =
        List.fold_left
          (fun acc cs ->
            List.concat_map
              (fun a -> List.map (fun c -> IntSet.union a c) cs)
              acc)
          [ IntSet.empty ] fanin_cuts
      in
      let feasible =
        List.sort_uniq IntSet.compare
          (List.filter (fun c -> IntSet.cardinal c <= k) merged)
      in
      cuts.(t) <- feasible;
      label.(t) <-
        List.fold_left
          (fun best c ->
            let h = IntSet.fold (fun u acc -> max acc label.(u)) c 0 in
            min best (h + 1))
          max_int feasible
  done;
  label

let small_graphs () =
  [ ("adder4", Subject.of_network (Generators.ripple_adder 4));
    ("parity8", Subject.of_network (Generators.parity 8));
    ("rand", Subject.of_network
       (Generators.random_dag ~seed:5 ~inputs:6 ~outputs:3 ~nodes:25 ())) ]

let test_labels_match_brute_force () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let cover = Flowmap.map ~k g in
          let reference = brute_force_depths g k in
          for t = 0 to Subject.num_nodes g - 1 do
            check tint
              (Printf.sprintf "%s k=%d node %d" name k t)
              reference.(t)
              cover.Flowmap.labels.(t)
          done)
        [ 2; 3; 4; 5 ])
    (small_graphs ())

(* --- cover structure ------------------------------------------------ *)

let test_cover_structure () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let cover = Flowmap.map ~k g in
          check tbool
            (Printf.sprintf "%s k=%d labels consistent" name k)
            true
            (Flowmap.check_labels_optimal cover);
          List.iter
            (fun lut ->
              check tbool "cut size" true
                (Array.length lut.Flowmap.lut_inputs <= k))
            cover.Flowmap.luts)
        [ 3; 4 ])
    (small_graphs ())

let test_inv_chain_one_lut () =
  (* An inverter chain has single-node cuts everywhere: depth 1. *)
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let n = ref x in
  for _ = 1 to 10 do
    n := Subject.Builder.raw_inv b !n
  done;
  Subject.Builder.output b "o" !n;
  let g = Subject.Builder.finish b in
  let cover = Flowmap.map ~k:2 g in
  check tint "depth 1" 1 (Flowmap.depth cover);
  check tint "single lut" 1 (Flowmap.num_luts cover)

let test_depth_decreases_with_k () =
  let g = Subject.of_network (Generators.array_multiplier 6) in
  let d k = Flowmap.depth (Flowmap.map ~k g) in
  let d2 = d 2 and d4 = d 4 and d6 = d 6 in
  check tbool "k=4 no worse than k=2" true (d4 <= d2);
  check tbool "k=6 no worse than k=4" true (d6 <= d4);
  check tbool "depth below subject depth" true (d4 <= Subject.depth g)

let test_equivalence () =
  List.iter
    (fun (name, g) ->
      let cover = Flowmap.map ~k:4 g in
      let n_pi = List.length (Subject.pi_ids g) in
      for m = 0 to min 255 ((1 lsl n_pi) - 1) do
        let asg = Array.init n_pi (fun i -> m land (1 lsl i) <> 0) in
        let expected = Subject.eval g asg in
        let actual = Flowmap.eval cover asg in
        List.iter
          (fun (o, value) ->
            if List.assoc o actual <> value then
              Alcotest.failf "%s: output %s differs" name o)
          expected
      done)
    (small_graphs ())

let test_to_network_roundtrip () =
  List.iter
    (fun (name, g) ->
      let cover = Flowmap.map ~k:4 g in
      let net = Flowmap.to_network cover in
      Dagmap_logic.Network.validate net;
      check tbool
        (Printf.sprintf "%s: exported network is 4-bounded" name)
        true
        (Dagmap_logic.Network.is_k_bounded net 4);
      (* Functional equivalence with the subject graph. *)
      let n_pi = List.length (Subject.pi_ids g) in
      for m = 0 to min 127 ((1 lsl n_pi) - 1) do
        let asg = Array.init n_pi (fun i -> m land (1 lsl i) <> 0) in
        let expected = Subject.eval g asg in
        let words = Array.map (fun b -> if b then 1L else 0L) asg in
        let actual = Dagmap_sim.Simulate.network net words in
        List.iter
          (fun (o, value) ->
            let w = List.assoc o actual in
            if Int64.logand w 1L = 1L <> value then
              Alcotest.failf "%s: exported network differs on %s" name o)
          expected
      done)
    (small_graphs ())

let test_deep_chain_cover () =
  (* Regression: cone_of, the region truth-table evaluator, eval and
     to_network were recursive. A deep NAND chain exercises all four
     on one graph. Depth is modest only because FlowMap recomputes
     each node's full fanin cone (quadratic on chains) — the explicit
     stacks themselves handle 100k-deep graphs (see test_network). *)
  let depth = 2_000 in
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n = ref (Subject.Builder.nand b x y) in
  for _ = 2 to depth do
    n := Subject.Builder.raw_nand b !n y
  done;
  Subject.Builder.output b "o" !n;
  let g = Subject.Builder.finish b in
  let cover = Flowmap.map ~k:4 g in
  check tbool "labels consistent" true (Flowmap.check_labels_optimal cover);
  List.iter
    (fun asg ->
      let expected = List.assoc "o" (Subject.eval g asg) in
      check tbool "eval matches subject" expected
        (List.assoc "o" (Flowmap.eval cover asg)))
    [ [| true; true |]; [| true; false |]; [| false; true |] ];
  let net = Flowmap.to_network cover in
  Dagmap_logic.Network.validate net

let test_k_too_small_rejected () =
  let g = Subject.of_network (Generators.parity 4) in
  Alcotest.check_raises "k=1 rejected"
    (Invalid_argument "Flowmap.map: k must be >= 2") (fun () ->
      ignore (Flowmap.map ~k:1 g))

let test_bigger_circuit_smoke () =
  let g = Subject.of_network (Iscas_like.c880_like ()) in
  let cover = Flowmap.map ~k:5 g in
  check tbool "labels consistent" true (Flowmap.check_labels_optimal cover);
  check tbool "depth positive" true (Flowmap.depth cover > 0)

let () =
  Alcotest.run "flowmap"
    [ ( "maxflow",
        [ Alcotest.test_case "simple" `Quick test_maxflow_simple;
          Alcotest.test_case "bottleneck" `Quick test_maxflow_bottleneck;
          Alcotest.test_case "bounded" `Quick test_maxflow_bound_early_exit;
          Alcotest.test_case "min cut side" `Quick test_min_cut_side ] );
      ( "optimality",
        [ Alcotest.test_case "brute force labels" `Slow
            test_labels_match_brute_force;
          Alcotest.test_case "cover structure" `Quick test_cover_structure;
          Alcotest.test_case "inv chain" `Quick test_inv_chain_one_lut;
          Alcotest.test_case "monotone in k" `Quick test_depth_decreases_with_k ] );
      ( "equivalence",
        [ Alcotest.test_case "small circuits" `Quick test_equivalence;
          Alcotest.test_case "to_network" `Quick test_to_network_roundtrip;
          Alcotest.test_case "deep chain" `Quick test_deep_chain_cover;
          Alcotest.test_case "k too small" `Quick test_k_too_small_rejected;
          Alcotest.test_case "c880 smoke" `Quick test_bigger_circuit_smoke ] ) ]
