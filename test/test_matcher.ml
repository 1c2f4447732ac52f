(* Graph matching: the three match classes of the paper
   (Definitions 1-3), including reconstructions of Figure 1
   (standard vs. extended) and Figure 2 (exact vs. standard /
   duplication), and a semantic property: every reported match
   computes the gate function. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let gate_of_expr name n expr =
  Gate.make ~name ~area:1.0
    ~pins:(Array.init n (fun i -> Gate.simple_pin (Printf.sprintf "p%d" i)))
    expr

let one_pattern gate =
  match Pattern.of_gate ~max_shapes:1 gate with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected 1 pattern, got %d" (List.length ps)

(* The engine's matcher, collected. *)
let matches cls g ~fanouts p root =
  let acc = ref [] in
  Mapper.for_each_match cls g ~fanouts p root (fun m -> acc := m :: !acc);
  List.rev !acc

let count cls g p root =
  List.length (matches cls g ~fanouts:(Subject.fanout_counts g) p root)

(* --- basics --------------------------------------------------------- *)

let test_nand2_matches () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" and y = Subject.Builder.pi b "y" in
  let n = Subject.Builder.nand b x y in
  Subject.Builder.output b "o" n;
  let g = Subject.Builder.finish b in
  let nand2 =
    one_pattern (gate_of_expr "nand2" 2 Bexpr.(not_ (and2 (var 0) (var 1))))
  in
  (* Two pin permutations, both classes. *)
  check tint "standard nand2" 2 (count Matcher.Standard g nand2 n);
  check tint "exact nand2" 2 (count Matcher.Exact g nand2 n);
  check tint "extended nand2" 2 (count Matcher.Extended g nand2 n);
  (* No match rooted at a PI. *)
  check tint "no match at pi" 0 (count Matcher.Standard g nand2 x)

let test_inv_chain_matching () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let i1 = Subject.Builder.raw_inv b x in
  let i2 = Subject.Builder.raw_inv b i1 in
  Subject.Builder.output b "o" i2;
  let g = Subject.Builder.finish b in
  let inv = one_pattern (gate_of_expr "inv" 1 Bexpr.(not_ (var 0))) in
  check tint "inv at i2" 1 (count Matcher.Standard g inv i2);
  check tint "inv at i1" 1 (count Matcher.Standard g inv i1);
  (* A 2-deep pattern (buffer as double inverter cannot be built:
     smart constructors cancel). Use nand-of-inv instead. *)
  let nandinv =
    one_pattern (gate_of_expr "oai" 2 Bexpr.(not_ (and2 (not_ (var 0)) (var 1))))
  in
  let b2 = Subject.Builder.create () in
  let x2 = Subject.Builder.pi b2 "x" and y2 = Subject.Builder.pi b2 "y" in
  let ix = Subject.Builder.inv b2 x2 in
  let n = Subject.Builder.nand b2 ix y2 in
  Subject.Builder.output b2 "o" n;
  let g2 = Subject.Builder.finish b2 in
  check tbool "nand-of-inv matches through the inverter" true
    (count Matcher.Standard g2 nandinv n >= 1)

(* --- Figure 1: standard vs extended -------------------------------- *)

let figure1 () =
  (* Subject: n = nand(a, b); top = inv(nand(n, n)).
     Pattern (AND2): inv(nand(m, m')) — an extended match exists by
     mapping both m and m' to n; a standard match does not (the
     one-to-one requirement). *)
  let b = Subject.Builder.create () in
  let a = Subject.Builder.pi b "a" and b_ = Subject.Builder.pi b "b" in
  let n = Subject.Builder.nand b a b_ in
  let nn = Subject.Builder.raw_nand b n n in
  let top = Subject.Builder.inv b nn in
  Subject.Builder.output b "f" top;
  (Subject.Builder.finish b, top)

let test_figure1 () =
  let g, top = figure1 () in
  let and2 = one_pattern (gate_of_expr "and2" 2 Bexpr.(and2 (var 0) (var 1))) in
  check tint "Figure 1: no standard match" 0 (count Matcher.Standard g and2 top);
  check tint "Figure 1: no exact match" 0 (count Matcher.Exact g and2 top);
  check tint "Figure 1: one extended match" 1
    (count Matcher.Extended g and2 top);
  (* The extended match folds both pattern leaves onto n. *)
  let fanouts = Subject.fanout_counts g in
  (match matches Matcher.Extended g ~fanouts and2 top with
   | [ m ] ->
     check tint "both pins bound to n" m.Matcher.pins.(0) m.Matcher.pins.(1)
   | _ -> Alcotest.fail "expected exactly one extended match")

(* --- Figure 2: exact vs standard, duplication ----------------------- *)

let figure2 () =
  (* Subject: mid = nand(b, c) has two fanouts; out1 = nand(a, mid),
     out2 = nand(mid, d). Pattern: !(x * !(y * z)). *)
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
  (Subject.Builder.finish bld, mid, out1, out2)

let big_gate () =
  gate_of_expr "big" 3 Bexpr.(not_ (and2 (var 0) (not_ (and2 (var 1) (var 2)))))

let test_figure2_matching () =
  let g, mid, out1, out2 = figure2 () in
  let p = one_pattern (big_gate ()) in
  (* Tree covering cannot use the pattern: the internal node has
     fanout 2, violating the exact-match out-degree condition. *)
  check tint "Figure 2: no exact match at out1" 0 (count Matcher.Exact g p out1);
  check tint "Figure 2: no exact match at out2" 0 (count Matcher.Exact g p out2);
  (* DAG covering can: standard matches exist at both outputs. *)
  check tbool "standard at out1" true (count Matcher.Standard g p out1 >= 1);
  check tbool "standard at out2" true (count Matcher.Standard g p out2 >= 1);
  (* Both matches cover mid internally. *)
  let fanouts = Subject.fanout_counts g in
  List.iter
    (fun root ->
      let ms = matches Matcher.Standard g ~fanouts p root in
      check tbool "covers mid" true
        (List.exists (fun m -> Array.mem mid m.Matcher.covered) ms))
    [ out1; out2 ]

let test_figure2_mapping_duplicates () =
  let g, _, _, _ = figure2 () in
  (* Library: inv + nand2 + the Figure 2 pattern gate, with the big
     gate fast enough to win. *)
  let inv =
    Gate.make ~name:"inv" ~area:1.0
      ~pins:[| Gate.simple_pin ~delay:0.5 "a" |]
      Bexpr.(not_ (var 0))
  in
  let nand2 =
    Gate.make ~name:"nand2" ~area:2.0
      ~pins:(Array.init 2 (fun i -> Gate.simple_pin ~delay:1.0 (Printf.sprintf "p%d" i)))
      Bexpr.(not_ (and2 (var 0) (var 1)))
  in
  let big =
    Gate.make ~name:"big" ~area:3.0
      ~pins:(Array.init 3 (fun i -> Gate.simple_pin ~delay:1.2 (Printf.sprintf "p%d" i)))
      Bexpr.(not_ (and2 (var 0) (not_ (and2 (var 1) (var 2)))))
  in
  let lib = Libraries.make "fig2" [ inv; nand2; big ] in
  let db = Matchdb.prepare lib in
  let tree = Mapper.map Mapper.Tree db g in
  let dag = Mapper.map Mapper.Dag db g in
  (* Tree mapping: two levels of nand2 on the critical path. *)
  check (Alcotest.float 1e-6) "tree delay" 2.0
    (Netlist.delay tree.Mapper.netlist);
  (* DAG mapping: each output one big gate; mid duplicated. *)
  check (Alcotest.float 1e-6) "dag delay" 1.2 (Netlist.delay dag.Mapper.netlist);
  check tint "dag uses two gates" 2 (Netlist.num_gates dag.Mapper.netlist);
  check tint "mid covered twice" 1 (Netlist.duplication dag.Mapper.netlist);
  check tint "tree never duplicates" 0 (Netlist.duplication tree.Mapper.netlist);
  (* The mapped circuit no longer has an internal multiple-fanout
     point; the PIs b and c now fan out instead (paper §3.5). *)
  check tint "dag max fanout from PIs" 2 (Netlist.max_fanout dag.Mapper.netlist)

(* --- exact match out-degree details --------------------------------- *)

let test_exact_requires_internal_fanout_one () =
  (* Same structure as Figure 2 but with single fanout: exact match
     appears. *)
  let bld = Subject.Builder.create () in
  let a = Subject.Builder.pi bld "a" in
  let b = Subject.Builder.pi bld "b" in
  let c = Subject.Builder.pi bld "c" in
  let mid = Subject.Builder.nand bld b c in
  let out1 = Subject.Builder.nand bld a mid in
  Subject.Builder.output bld "o1" out1;
  let g = Subject.Builder.finish bld in
  let p = one_pattern (big_gate ()) in
  check tbool "exact match when fanout is 1" true
    (count Matcher.Exact g p out1 >= 1)

(* --- semantic property ---------------------------------------------- *)

(* Every reported match must compute the gate function: for each PI
   assignment, the subject value at the match root equals the gate
   function applied to the subject values at the bound pins. *)
let test_match_semantics () =
  let lib = Libraries.lib2_like () in
  let net =
    Dagmap_circuits.Generators.random_dag ~seed:99 ~inputs:6 ~outputs:3
      ~nodes:25 ()
  in
  let g = Subject.of_network net in
  let fanouts = Subject.fanout_counts g in
  let rooting = Oracle.rooting lib in
  let n_pi = List.length (Subject.pi_ids g) in
  let checked = ref 0 in
  for node = 0 to Subject.num_nodes g - 1 do
    List.iter
      (fun cls ->
        List.iter
          (fun m ->
            incr checked;
            let gate = Matcher.gate m in
            for assignment = 0 to (1 lsl n_pi) - 1 do
              let asg = Array.init n_pi (fun i -> assignment land (1 lsl i) <> 0) in
              (* Node values via direct evaluation. *)
              let value = Array.make (Subject.num_nodes g) false in
              List.iteri
                (fun i id -> value.(id) <- asg.(i))
                (Subject.pi_ids g);
              for u = 0 to Subject.num_nodes g - 1 do
                match Subject.kind g u with
                | Subject.Spi -> ()
                | Subject.Sinv x -> value.(u) <- not value.(x)
                | Subject.Snand (x, y) -> value.(u) <- not (value.(x) && value.(y))
              done;
              let pin_values =
                Array.map
                  (fun pin_node -> if pin_node >= 0 then value.(pin_node) else false)
                  m.Matcher.pins
              in
              if Truth.eval gate.Gate.func pin_values <> value.(node) then
                Alcotest.failf "match of %s at node %d is not functional"
                  gate.Gate.gate_name node
            done)
          (Oracle.node_matches rooting cls g ~fanouts node))
      [ Matcher.Standard; Matcher.Extended; Matcher.Exact ]
  done;
  check tbool "checked many matches" true (!checked > 50)

let test_class_inclusion () =
  (* exact ⊆ standard ⊆ extended (as sets of pin bindings). *)
  let net =
    Dagmap_circuits.Generators.random_dag ~seed:17 ~inputs:6 ~outputs:3
      ~nodes:30 ()
  in
  let g = Subject.of_network net in
  let fanouts = Subject.fanout_counts g in
  let rooting = Oracle.rooting (Libraries.lib2_like ()) in
  let key m =
    ((Matcher.gate m).Gate.gate_name, Array.to_list m.Matcher.pins)
  in
  for node = 0 to Subject.num_nodes g - 1 do
    let of_class cls =
      List.map key (Oracle.node_matches rooting cls g ~fanouts node)
    in
    let exact = of_class Matcher.Exact in
    let standard = of_class Matcher.Standard in
    let extended = of_class Matcher.Extended in
    List.iter
      (fun k ->
        check tbool "exact ⊆ standard" true (List.mem k standard))
      exact;
    List.iter
      (fun k ->
        check tbool "standard ⊆ extended" true (List.mem k extended))
      standard
  done

let () =
  Alcotest.run "matcher"
    [ ( "basics",
        [ Alcotest.test_case "nand2" `Quick test_nand2_matches;
          Alcotest.test_case "inv chains" `Quick test_inv_chain_matching ] );
      ( "figure1",
        [ Alcotest.test_case "standard vs extended" `Quick test_figure1 ] );
      ( "figure2",
        [ Alcotest.test_case "matching" `Quick test_figure2_matching;
          Alcotest.test_case "mapping duplicates" `Quick
            test_figure2_mapping_duplicates;
          Alcotest.test_case "exact with fanout 1" `Quick
            test_exact_requires_internal_fanout_one ] );
      ( "semantics",
        [ Alcotest.test_case "matches are functional" `Slow test_match_semantics;
          Alcotest.test_case "class inclusion" `Quick test_class_inclusion ] ) ]
