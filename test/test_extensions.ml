(* Extensions: area recovery and fanout buffering. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_sim
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-6

let cases () =
  [ ("adder12", Generators.ripple_adder 12, Libraries.lib2_like ());
    ("alu8", Generators.alu 8, Libraries.lib2_like ());
    ("cla16", Generators.carry_lookahead_adder 16, Libraries.lib44_1_like ());
    ("rand", Generators.random_dag ~seed:8 ~inputs:12 ~outputs:6 ~nodes:150 (),
     Libraries.lib2_like ()) ]

(* --- area recovery --------------------------------------------------- *)

let test_area_recovery_preserves_delay () =
  List.iter
    (fun (name, net, lib) ->
      let g = Subject.of_network net in
      let db = Matchdb.prepare lib in
      let r = Mapper.map Mapper.Dag db g in
      let recovered = Area_recovery.recover db Mapper.Dag g r in
      Netlist.validate recovered;
      check tfloat
        (Printf.sprintf "%s delay preserved" name)
        (Netlist.delay r.Mapper.netlist)
        (Netlist.delay recovered))
    (cases ())

let test_area_recovery_reduces_area () =
  let improved = ref 0 in
  List.iter
    (fun (_, net, lib) ->
      let g = Subject.of_network net in
      let db = Matchdb.prepare lib in
      let r = Mapper.map Mapper.Dag db g in
      let recovered = Area_recovery.recover db Mapper.Dag g r in
      check tbool "never increases area" true
        (Netlist.area recovered <= Netlist.area r.Mapper.netlist +. 1e-6);
      if Netlist.area recovered < Netlist.area r.Mapper.netlist -. 1e-6 then
        incr improved)
    (cases ());
  check tbool "area actually improves somewhere" true (!improved >= 2)

let test_area_recovery_equivalence () =
  List.iter
    (fun (name, net, lib) ->
      let g = Subject.of_network net in
      let db = Matchdb.prepare lib in
      let r = Mapper.map Mapper.Dag db g in
      let recovered = Area_recovery.recover db Mapper.Dag g r in
      let verdict =
        Equiv.compare_sims ~rounds:6
          ~n_inputs:(List.length (Subject.pi_ids g))
          (Simulate.subject g)
          (Simulate.netlist recovered)
      in
      if not (Equiv.is_equivalent verdict) then
        Alcotest.failf "%s: %s" name
          (Format.asprintf "%a" Dagmap_sim.Equiv.pp_verdict verdict))
    (cases ())

let test_per_output_mode () =
  let _, net, lib = List.nth (cases ()) 0 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare lib in
  let r = Mapper.map Mapper.Dag db g in
  let strict = Area_recovery.recover ~per_output:true db Mapper.Dag g r in
  (* Per-output mode preserves each output's individual arrival. *)
  let before = Netlist.output_arrivals r.Mapper.netlist in
  let after = Netlist.output_arrivals strict in
  List.iter
    (fun (name, a) ->
      check tbool
        (Printf.sprintf "output %s arrival preserved" name)
        true
        (List.assoc name after <= a +. 1e-6))
    before

let test_recovery_works_for_tree_mode () =
  let _, net, lib = List.nth (cases ()) 1 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare lib in
  let r = Mapper.map Mapper.Tree db g in
  let recovered = Area_recovery.recover db Mapper.Tree g r in
  Netlist.validate recovered;
  check tfloat "tree delay preserved"
    (Netlist.delay r.Mapper.netlist)
    (Netlist.delay recovered);
  check tbool "tree area not worse" true
    (Netlist.area recovered <= Netlist.area r.Mapper.netlist +. 1e-6)

(* --- buffering -------------------------------------------------------- *)

let high_fanout_netlist () =
  (* Parity over a shared signal: decoder has huge PI fanout. *)
  let net = Generators.decoder 4 in
  let g = Subject.of_network net in
  let lib = Libraries.lib2_like () in
  let db = Matchdb.prepare lib in
  ((Mapper.map Mapper.Dag db g).Mapper.netlist, lib, g)

let test_buffering_bounds_fanout () =
  let nl, lib, _ = high_fanout_netlist () in
  check tbool "decoder has high fanout" true (Netlist.max_fanout nl > 4);
  let buffered = Buffering.buffer_fanouts lib ~max_fanout:4 nl in
  Netlist.validate buffered;
  check tbool
    (Printf.sprintf "fanout bounded (%d)" (Netlist.max_fanout buffered))
    true
    (Netlist.max_fanout buffered <= 4)

let test_buffering_preserves_function () =
  let nl, lib, g = high_fanout_netlist () in
  let buffered = Buffering.buffer_fanouts lib ~max_fanout:3 nl in
  let verdict =
    Equiv.compare_sims ~rounds:6 ~n_inputs:(List.length (Subject.pi_ids g))
      (Simulate.netlist nl)
      (Simulate.netlist buffered)
  in
  check tbool "buffered netlist equivalent" true (Equiv.is_equivalent verdict)

let test_buffering_improves_loaded_delay () =
  let nl, lib, _ = high_fanout_netlist () in
  let alpha = 0.5 in
  let buffered = Buffering.buffer_fanouts lib ~max_fanout:4 nl in
  check tbool "loaded delay improves under heavy load model" true
    (Buffering.loaded_delay ~alpha buffered
    < Buffering.loaded_delay ~alpha nl +. 1e-9)

let test_buffering_noop_when_low_fanout () =
  let net = Generators.parity 8 in
  let g = Subject.of_network net in
  let lib = Libraries.lib2_like () in
  let db = Matchdb.prepare lib in
  let nl = (Mapper.map Mapper.Tree db g).Mapper.netlist in
  let mf = Netlist.max_fanout nl in
  let buffered = Buffering.buffer_fanouts lib ~max_fanout:(max mf 2) nl in
  check Alcotest.int "no buffers added" (Netlist.num_gates nl)
    (Netlist.num_gates buffered)

let test_buffering_with_inverter_pairs () =
  (* The minimal library has no buffer gate: inverter pairs are used. *)
  let nl, _, g = high_fanout_netlist () in
  let minimal = Libraries.minimal () in
  let buffered = Buffering.buffer_fanouts minimal ~max_fanout:4 nl in
  Netlist.validate buffered;
  check tbool "fanout bounded via inv pairs" true
    (Netlist.max_fanout buffered <= 4);
  let verdict =
    Equiv.compare_sims ~rounds:4 ~n_inputs:(List.length (Subject.pi_ids g))
      (Simulate.netlist nl)
      (Simulate.netlist buffered)
  in
  check tbool "still equivalent" true (Equiv.is_equivalent verdict)

let test_loaded_delay_exceeds_intrinsic () =
  let nl, _, _ = high_fanout_netlist () in
  check tbool "load model adds delay" true
    (Buffering.loaded_delay ~alpha:0.3 nl >= Netlist.delay nl -. 1e-9)

(* --- gate sizing (paper §5 validation) -------------------------------- *)

let sized_case () =
  let net = Generators.alu 10 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  (Mapper.map Mapper.Dag db g).Mapper.netlist

let test_sizing_bounds_loaded_delay () =
  let nl = sized_case () in
  let tolerance = 0.15 in
  let sized = Sizing.size_to_target ~tolerance ~max_size:1000.0 nl in
  let intrinsic = Netlist.delay nl in
  let after = Sizing.loaded_delay ~sizes:sized.Sizing.sizes nl in
  (* With an uncapped size, every arc's penalty is within tolerance of
     its block delay, so the path bound holds. *)
  check tbool
    (Printf.sprintf "sized %.2f <= (1+tol) * intrinsic %.2f" after intrinsic)
    true
    (after <= ((1.0 +. tolerance) *. intrinsic) +. 1e-6)

let test_sizing_improves_and_costs_area () =
  let nl = sized_case () in
  let sized = Sizing.size_to_target nl in
  check tbool "loaded delay improves" true
    (Sizing.loaded_delay ~sizes:sized.Sizing.sizes nl
    < Sizing.loaded_delay nl +. 1e-9);
  check tbool "sizes >= 1" true (Array.for_all (fun s -> s >= 1.0) sized.Sizing.sizes);
  check tbool "area grows" true (sized.Sizing.sized_area >= Netlist.area nl)

let test_unit_sizes_are_neutral () =
  let nl = sized_case () in
  let unit = Array.make (Netlist.num_gates nl) 1.0 in
  check (Alcotest.float 1e-9) "explicit unit sizes match default"
    (Sizing.loaded_delay nl)
    (Sizing.loaded_delay ~sizes:unit nl);
  (* A zero-coefficient library sees no load penalty at all. *)
  let inv =
    Gate.make ~name:"inv" ~area:1.0
      ~pins:[| Gate.simple_pin ~delay:0.5 "a" |]
      Dagmap_logic.Bexpr.(not_ (var 0))
  in
  let nand2 =
    Gate.make ~name:"nand2" ~area:2.0
      ~pins:
        (Array.init 2 (fun i ->
             Gate.simple_pin ~delay:1.0 (Printf.sprintf "p%d" i)))
      Dagmap_logic.Bexpr.(not_ (and2 (var 0) (var 1)))
  in
  let loadfree = Libraries.make "loadfree" [ inv; nand2 ] in
  let g = Subject.of_network (Generators.parity 8) in
  let db = Matchdb.prepare loadfree in
  let nl2 = (Mapper.map Mapper.Dag db g).Mapper.netlist in
  check (Alcotest.float 1e-9) "zero-coefficient library"
    (Netlist.delay nl2) (Sizing.loaded_delay nl2)

(* --- decomposition styles (paper §4 sensitivity) ----------------------- *)

let test_styles_preserve_function () =
  let net = Generators.decoder 4 in
  List.iter
    (fun style ->
      let g = Subject.of_network ~style net in
      let n = List.length (Subject.pi_ids g) in
      let verdict =
        Dagmap_sim.Equiv.compare_sims ~rounds:4 ~n_inputs:n
          (fun words -> Dagmap_sim.Simulate.network net words)
          (Dagmap_sim.Simulate.subject g)
      in
      check tbool "style preserves function" true
        (Dagmap_sim.Equiv.is_equivalent verdict))
    [ Subject.Balanced; Subject.Left_skew; Subject.Right_skew ]

let test_styles_change_structure () =
  let net = Generators.decoder 6 in
  let depth style = Subject.depth (Subject.of_network ~style net) in
  check tbool "balanced shallower than skewed" true
    (depth Subject.Balanced < depth Subject.Left_skew)

(* --- QCheck properties over random circuits --------------------------- *)

let qc_area_recovery_safe =
  QCheck.Test.make ~count:15 ~name:"area recovery: never worse, delay kept"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:60 () in
      let g = Subject.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      let r = Mapper.map Mapper.Dag db g in
      let recovered = Area_recovery.recover db Mapper.Dag g r in
      Netlist.area recovered <= Netlist.area r.Mapper.netlist +. 1e-6
      && Float.abs (Netlist.delay recovered -. Netlist.delay r.Mapper.netlist)
         < 1e-6
      && Equiv.is_equivalent
           (Equiv.compare_sims ~rounds:3
              ~n_inputs:(List.length (Subject.pi_ids g))
              (Simulate.subject g)
              (Simulate.netlist recovered)))

let qc_buffering_safe =
  QCheck.Test.make ~count:15 ~name:"buffering: bound respected, equivalent"
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 6)))
    (fun (seed, max_fanout) ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:6 ~nodes:60 () in
      let g = Subject.of_network net in
      let lib = Libraries.lib2_like () in
      let db = Matchdb.prepare lib in
      let nl = (Mapper.map Mapper.Dag db g).Mapper.netlist in
      let buffered = Buffering.buffer_fanouts lib ~max_fanout nl in
      Netlist.max_fanout buffered <= max_fanout
      && Equiv.is_equivalent
           (Equiv.compare_sims ~rounds:3
              ~n_inputs:(List.length (Subject.pi_ids g))
              (Simulate.netlist nl)
              (Simulate.netlist buffered)))

let qc_styles_equivalent =
  QCheck.Test.make ~count:15 ~name:"decomposition styles: all equivalent"
    QCheck.(make Gen.(pair (int_bound 10_000) (int_bound 2)))
    (fun (seed, style_idx) ->
      let style =
        List.nth [ Subject.Balanced; Subject.Left_skew; Subject.Right_skew ]
          style_idx
      in
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:50 () in
      let g = Subject.of_network ~style net in
      Equiv.is_equivalent
        (Equiv.compare_sims ~rounds:3
           ~n_inputs:(List.length (Subject.pi_ids g))
           (fun words -> Simulate.network net words)
           (Simulate.subject g)))

let () =
  Alcotest.run "extensions"
    [ ( "area recovery",
        [ Alcotest.test_case "delay preserved" `Quick
            test_area_recovery_preserves_delay;
          Alcotest.test_case "area reduced" `Quick
            test_area_recovery_reduces_area;
          Alcotest.test_case "equivalence" `Quick test_area_recovery_equivalence;
          Alcotest.test_case "per-output mode" `Quick test_per_output_mode;
          Alcotest.test_case "tree mode" `Quick test_recovery_works_for_tree_mode ] );
      ( "buffering",
        [ Alcotest.test_case "bounds fanout" `Quick test_buffering_bounds_fanout;
          Alcotest.test_case "preserves function" `Quick
            test_buffering_preserves_function;
          Alcotest.test_case "improves loaded delay" `Quick
            test_buffering_improves_loaded_delay;
          Alcotest.test_case "noop when low fanout" `Quick
            test_buffering_noop_when_low_fanout;
          Alcotest.test_case "inverter pairs" `Quick
            test_buffering_with_inverter_pairs;
          Alcotest.test_case "loaded vs intrinsic" `Quick
            test_loaded_delay_exceeds_intrinsic ] );
      ( "sizing",
        [ Alcotest.test_case "bounds loaded delay" `Quick
            test_sizing_bounds_loaded_delay;
          Alcotest.test_case "improves and costs area" `Quick
            test_sizing_improves_and_costs_area;
          Alcotest.test_case "unit sizes neutral" `Quick
            test_unit_sizes_are_neutral ] );
      ( "decomposition styles",
        [ Alcotest.test_case "preserve function" `Quick
            test_styles_preserve_function;
          Alcotest.test_case "change structure" `Quick
            test_styles_change_structure ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qc_area_recovery_safe;
          QCheck_alcotest.to_alcotest qc_buffering_safe;
          QCheck_alcotest.to_alcotest qc_styles_equivalent ] ) ]
