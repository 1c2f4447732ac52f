(* Subject graph construction: NAND2-INV decomposition equivalence,
   structural hashing, constant folding, builder behavior. *)

open Dagmap_logic
open Dagmap_subject
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let v = Bexpr.var

(* Exhaustive equivalence between a network and its subject graph for
   small input counts. *)
let assert_equiv ?(max_inputs = 12) net =
  let sg = Subject.of_network net in
  let n_pis = List.length (Network.pis net) in
  Alcotest.(check bool) "no latches in this helper" true (Network.latches net = []);
  if n_pis <= max_inputs then
    for m = 0 to (1 lsl n_pis) - 1 do
      let asg = Array.init n_pis (fun i -> m land (1 lsl i) <> 0) in
      let expected =
        (* Reference: evaluate the network directly. *)
        let value = Array.make (Network.num_nodes net) false in
        List.iteri (fun i id -> value.(id) <- asg.(i)) (Network.pis net);
        List.iter
          (fun id ->
            let n = Network.node net id in
            match n.Network.kind with
            | Network.Pi | Network.Latch_out -> ()
            | Network.Logic ->
              value.(id) <-
                Bexpr.eval n.Network.expr (fun i -> value.(n.Network.fanins.(i))))
          (Network.topological_order net);
        List.map (fun (name, id) -> (name, value.(id))) (Network.pos net)
      in
      let actual = Subject.eval sg asg in
      List.iter
        (fun (name, value) ->
          match List.assoc_opt name actual with
          | None -> Alcotest.failf "missing output %s" name
          | Some actual_value ->
            if actual_value <> value then
              Alcotest.failf "output %s differs on minterm %d" name m)
        expected
    done
  else Alcotest.fail "too many inputs for exhaustive check"

let test_simple_decomposition () =
  let net = Network.create () in
  let a = Network.add_pi net "a" and b = Network.add_pi net "b" in
  let c = Network.add_pi net "c" in
  let f =
    Network.add_logic net
      Bexpr.(or2 (and2 (v 0) (v 1)) (not_ (v 2)))
      [| a; b; c |]
  in
  Network.add_po net "f" f;
  assert_equiv net;
  let sg = Subject.of_network net in
  check tint "three PIs" 3 sg.Subject.num_pis

let test_xor_decomposition () =
  let net = Network.create () in
  let a = Network.add_pi net "a" and b = Network.add_pi net "b" in
  let f = Network.add_logic net Bexpr.(xor2 (v 0) (v 1)) [| a; b |] in
  Network.add_po net "f" f;
  assert_equiv net

let test_wide_node () =
  let net = Network.create () in
  let pis = Array.init 6 (fun i -> Network.add_pi net (Printf.sprintf "x%d" i)) in
  let f = Network.add_logic net (Bexpr.or_list (List.init 6 v)) pis in
  Network.add_po net "f" f;
  assert_equiv net;
  let sg = Subject.of_network net in
  (* Balanced reduction keeps the decomposition shallow. *)
  check tbool "balanced depth" true (Subject.depth sg <= 6)

let test_structural_hashing () =
  let net = Network.create () in
  let a = Network.add_pi net "a" and b = Network.add_pi net "b" in
  (* Two nodes with the same function decompose to shared NANDs. *)
  let f = Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| a; b |] in
  let g = Network.add_logic net Bexpr.(and2 (v 1) (v 0)) [| b; a |] in
  Network.add_po net "f" f;
  Network.add_po net "g" g;
  let sg = Subject.of_network net in
  (* a&b and b&a share: 2 PIs + 1 nand + 1 inv. *)
  check tint "hashed node count" 4 (Subject.num_nodes sg)

let test_no_inverter_pairs () =
  List.iter
    (fun (_, net) ->
      let sg = Subject.of_network net in
      for i = 0 to Subject.num_nodes sg - 1 do
        match Subject.kind sg i with
        | Subject.Sinv x -> begin
          match Subject.kind sg x with
          | Subject.Sinv _ -> Alcotest.fail "inverter pair in subject graph"
          | Subject.Spi | Subject.Snand _ -> ()
        end
        | Subject.Spi | Subject.Snand _ -> ()
      done)
    [ ("c432", Iscas_like.c432_like ()); ("adder", Generators.ripple_adder 8) ]

let test_constant_output () =
  let net = Network.create () in
  let a = Network.add_pi net "a" in
  (* f = a & !a = 0 after folding; g = a | !a = 1. *)
  let na = Network.add_logic net Bexpr.(not_ (v 0)) [| a |] in
  let f = Network.add_logic net Bexpr.(and2 (v 0) (and2 (v 1) (not_ (v 1)))) [| a; na |] in
  ignore f;
  let z = Network.add_logic net (Bexpr.const false) [||] in
  let o = Network.add_logic net (Bexpr.const true) [||] in
  Network.add_po net "zero" z;
  Network.add_po net "one" o;
  let sg = Subject.of_network net in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string tbool))
    "const outputs"
    [ ("zero", false); ("one", true) ]
    sg.Subject.const_outputs;
  let results = Subject.eval sg [| true |] in
  check tbool "zero" false (List.assoc "zero" results);
  check tbool "one" true (List.assoc "one" results)

let test_po_driven_by_pi () =
  let net = Network.create () in
  let a = Network.add_pi net "a" in
  Network.add_po net "f" a;
  let sg = Subject.of_network net in
  let _, out = sg.Subject.outputs.(0) in
  check tbool "output is the PI node" true (Subject.kind sg out = Subject.Spi)

let test_latch_boundaries () =
  let net = Generators.lfsr 4 in
  let sg = Subject.of_network net in
  check tint "latch count recorded" 4 sg.Subject.n_latches;
  (* PIs: 1 enable + 4 latch outputs. *)
  check tint "pi count" 5 (List.length (Subject.pi_ids sg));
  (* Outputs: 4 POs + 4 latch inputs. *)
  check tint "output count" 8 (Array.length sg.Subject.outputs)

let test_builder_hashing_and_raw () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n1 = Subject.Builder.nand b x y in
  let n2 = Subject.Builder.nand b y x in
  check tint "commutative hashing" n1 n2;
  let r1 = Subject.Builder.raw_nand b x y in
  check tbool "raw always fresh" true (r1 <> n1);
  let i1 = Subject.Builder.inv b n1 in
  check tint "inv cancellation" n1 (Subject.Builder.inv b i1);
  Subject.Builder.output b "o" i1;
  let g = Subject.Builder.finish b in
  check tint "node count" 5 (Subject.num_nodes g)

let test_fanout_counts () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n1 = Subject.Builder.nand b x y in
  let n2 = Subject.Builder.nand b x n1 in
  Subject.Builder.output b "o" n2;
  Subject.Builder.output b "p" n1;
  let g = Subject.Builder.finish b in
  let fo = Subject.fanout_counts g in
  check tint "x fanout" 2 fo.(x);
  check tint "n1 fanout" 2 fo.(n1);
  check tint "n2 fanout" 1 fo.(n2)

let test_levels () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let i = Subject.Builder.inv b x in
  let n = Subject.Builder.nand b x i in
  Subject.Builder.output b "o" n;
  let g = Subject.Builder.finish b in
  let lv = Subject.levels g in
  check tint "pi level" 0 lv.(x);
  check tint "inv level" 1 lv.(i);
  check tint "nand level" 2 lv.(n);
  check tint "depth" 2 (Subject.depth g)

(* Decomposition golden: per graph and style, the node, PI, NAND and
   INV counts, the depth, and a digest of the fanin vectors, PI names,
   outputs, constant outputs and latch count. The rows were recorded
   from the decomposition before the subject graph was stored flat;
   they pin node numbering, which every mapped netlist exposes. *)
let golden =
  [ ("c432", Subject.Balanced, 726, 40, 462, 224, 27,
     "f5f077c92ec5a6f3b927b98e713e38bb");
    ("c432", Subject.Left_skew, 737, 40, 468, 229, 29,
     "e3e7b3012632332b08c49c3c194f34f5");
    ("c432", Subject.Right_skew, 738, 40, 468, 230, 27,
     "1ab7e1462c339d2ee44cc276f46eea9f");
    ("c880", Subject.Balanced, 1118, 58, 769, 291, 22,
     "cef6658963f8ef2b9341a306e207a2b9");
    ("c880", Subject.Left_skew, 1119, 58, 770, 291, 24,
     "6b20df26c4c9d42caee29f9604c875e9");
    ("c880", Subject.Right_skew, 1174, 58, 797, 319, 22,
     "2624599e1c3eb4c3a3395adeb6c64e50");
    ("c1355", Subject.Balanced, 1628, 98, 1086, 444, 23,
     "6f800071f55e88e9c4a6a86fbec3c4de");
    ("c1355", Subject.Left_skew, 1631, 98, 1088, 445, 23,
     "9b54cce36ed9999ff763d29201a189bf");
    ("c1355", Subject.Right_skew, 1631, 98, 1088, 445, 23,
     "393770491bfc0113ca80a75ff33298e5");
    ("c1908", Subject.Balanced, 2430, 114, 1644, 672, 36,
     "7631d7be248050742632f0c50fe96d22");
    ("c1908", Subject.Left_skew, 2432, 114, 1646, 672, 36,
     "13d543860fa5e27cdd266c01b338b373");
    ("c1908", Subject.Right_skew, 2428, 114, 1643, 671, 36,
     "62e177b061827cbd4118c54bba08d3fd");
    ("c2670", Subject.Balanced, 3488, 155, 2369, 964, 43,
     "bd9b39395ea5e9838fe7bfbd728aec73");
    ("c2670", Subject.Left_skew, 3483, 155, 2363, 965, 59,
     "2da4580f2a9d7911c60dfcee67181b9e");
    ("c2670", Subject.Right_skew, 3593, 155, 2430, 1008, 34,
     "32134b0c2af8965e1f5a190d92525654");
    ("c3540", Subject.Balanced, 4452, 159, 3200, 1093, 38,
     "14d58aa46fd4cb524584b2da4341bcf9");
    ("c3540", Subject.Left_skew, 4465, 159, 3207, 1099, 40,
     "acfbbd930dd860e94ce1b0157b9b7559");
    ("c3540", Subject.Right_skew, 4582, 159, 3265, 1158, 38,
     "c383f2ab4215a4892e8416e69dacc850");
    ("c5315", Subject.Balanced, 6980, 323, 4838, 1819, 63,
     "c12b9b917ae1a0a5ffc83c567c4adf96");
    ("c5315", Subject.Left_skew, 6973, 323, 4829, 1821, 87,
     "da6b984622cbeb221cccfb6cd3018af1");
    ("c5315", Subject.Right_skew, 7216, 323, 4969, 1924, 50,
     "a94821293d5e89d6b4b526e20391559c");
    ("c6288", Subject.Balanced, 3297, 32, 2336, 929, 118,
     "61fcb3810a145633a8c1ec0c55929abe");
    ("c6288", Subject.Left_skew, 3297, 32, 2336, 929, 118,
     "61fcb3810a145633a8c1ec0c55929abe");
    ("c6288", Subject.Right_skew, 3297, 32, 2336, 929, 118,
     "61fcb3810a145633a8c1ec0c55929abe");
    ("c7552", Subject.Balanced, 9020, 360, 6284, 2376, 83,
     "4b77fbe31fbec508339c23d5f1b371be");
    ("c7552", Subject.Left_skew, 9009, 360, 6271, 2378, 115,
     "0fae1a82a522d51a30f5c327254c8273");
    ("c7552", Subject.Right_skew, 9177, 360, 6380, 2437, 66,
     "4cdae9ad9f4f66c15445f6f9abab27cd");
    ("adder16", Subject.Balanced, 241, 33, 144, 64, 36,
     "73df168cd5fd233984ee55a83df1f1fa");
    ("adder16", Subject.Left_skew, 241, 33, 144, 64, 36,
     "73df168cd5fd233984ee55a83df1f1fa");
    ("adder16", Subject.Right_skew, 241, 33, 144, 64, 36,
     "73df168cd5fd233984ee55a83df1f1fa");
    ("lfsr16", Subject.Balanced, 71, 17, 51, 3, 5,
     "da7dc1eba533f7ef213c7a7ff1660958");
    ("lfsr16", Subject.Left_skew, 71, 17, 51, 3, 5,
     "da7dc1eba533f7ef213c7a7ff1660958");
    ("lfsr16", Subject.Right_skew, 71, 17, 51, 3, 5,
     "da7dc1eba533f7ef213c7a7ff1660958");
    ("random7", Subject.Balanced, 506, 32, 348, 126, 19,
     "49c0065579422dd16c8c408c52cb6f2f");
    ("random7", Subject.Left_skew, 506, 32, 348, 126, 19,
     "0cb840cc549d88a3f5111f8dc4b90288");
    ("random7", Subject.Right_skew, 506, 32, 348, 126, 17,
     "74f9c3d649da008227f3c0fff9f19f52") ]

let digest g =
  let b = Buffer.create 4096 in
  for i = 0 to Subject.num_nodes g - 1 do
    Printf.bprintf b "%d %d\n" (Subject.fanin0 g i) (Subject.fanin1 g i)
  done;
  Array.iter (Printf.bprintf b "pi %s\n") g.Subject.pi_names;
  Array.iter
    (fun (name, node) -> Printf.bprintf b "out %s %d\n" name node)
    g.Subject.outputs;
  List.iter
    (fun (name, v) -> Printf.bprintf b "const %s %b\n" name v)
    g.Subject.const_outputs;
  Printf.bprintf b "latches %d\n" g.Subject.n_latches;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden () =
  let circuits =
    [ ("c432", Iscas_like.c432_like); ("c880", Iscas_like.c880_like);
      ("c1355", Iscas_like.c1355_like); ("c1908", Iscas_like.c1908_like);
      ("c2670", Iscas_like.c2670_like); ("c3540", Iscas_like.c3540_like);
      ("c5315", Iscas_like.c5315_like); ("c6288", Iscas_like.c6288_like);
      ("c7552", Iscas_like.c7552_like);
      ("adder16", fun () -> Generators.ripple_adder 16);
      ("lfsr16", fun () -> Generators.lfsr 16);
      ("random7", fun () -> Generators.random_dag ~seed:7 ~nodes:120 ()) ]
  in
  check tint "rows" (3 * List.length circuits) (List.length golden);
  List.iter
    (fun (name, style, nodes, pis, nands, invs, depth, hex) ->
      let g = Subject.of_network ~style ((List.assoc name circuits) ()) in
      let what field =
        Printf.sprintf "%s/%s %s" name
          (match style with
           | Subject.Balanced -> "balanced"
           | Subject.Left_skew -> "left"
           | Subject.Right_skew -> "right")
          field
      in
      let count pred =
        List.length
          (List.filter pred (List.init (Subject.num_nodes g) (Subject.kind g)))
      in
      check tint (what "nodes") nodes (Subject.num_nodes g);
      check tint (what "pis") pis (count (fun k -> k = Subject.Spi));
      check tint (what "nands") nands
        (count (function Subject.Snand _ -> true | _ -> false));
      check tint (what "invs") invs
        (count (function Subject.Sinv _ -> true | _ -> false));
      check tint (what "depth") depth (Subject.depth g);
      check Alcotest.string (what "digest") hex (digest g))
    golden

(* QCheck: random networks decompose equivalently. *)
let qc_random_equiv =
  QCheck.Test.make ~count:30 ~name:"random network decomposition equivalence"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let net =
        Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:40 ()
      in
      let sg = Subject.of_network net in
      let ok = ref true in
      for m = 0 to 255 do
        let asg = Array.init 8 (fun i -> m land (1 lsl i) <> 0) in
        let value = Array.make (Network.num_nodes net) false in
        List.iteri (fun i id -> value.(id) <- asg.(i)) (Network.pis net);
        List.iter
          (fun id ->
            let n = Network.node net id in
            match n.Network.kind with
            | Network.Pi | Network.Latch_out -> ()
            | Network.Logic ->
              value.(id) <-
                Bexpr.eval n.Network.expr (fun i -> value.(n.Network.fanins.(i))))
          (Network.topological_order net);
        let actual = Subject.eval sg asg in
        List.iter
          (fun (name, id) ->
            if List.assoc name actual <> value.(id) then ok := false)
          (Network.pos net)
      done;
      !ok)

let () =
  Alcotest.run "subject"
    [ ( "decomposition",
        [ Alcotest.test_case "simple" `Quick test_simple_decomposition;
          Alcotest.test_case "xor" `Quick test_xor_decomposition;
          Alcotest.test_case "wide node" `Quick test_wide_node;
          Alcotest.test_case "structural hashing" `Quick test_structural_hashing;
          Alcotest.test_case "no inverter pairs" `Quick test_no_inverter_pairs;
          Alcotest.test_case "constant outputs" `Quick test_constant_output;
          Alcotest.test_case "po driven by pi" `Quick test_po_driven_by_pi;
          Alcotest.test_case "latch boundaries" `Quick test_latch_boundaries;
          Alcotest.test_case "golden numbering x styles" `Quick test_golden ] );
      ( "builder",
        [ Alcotest.test_case "hashing and raw" `Quick test_builder_hashing_and_raw;
          Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
          Alcotest.test_case "levels" `Quick test_levels ] );
      ( "properties", [ QCheck_alcotest.to_alcotest qc_random_equiv ] ) ]
