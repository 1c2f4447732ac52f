(* Supergate enumeration: deterministic generation across domain
   counts, emitted-gate invariants, the never-worse labeling property
   against the base library, and the strict delay win on the
   lib2-style library that motivates the subsystem. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_sim
open Dagmap_super

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* Small bounds keep enumeration sub-second; depth stays 2 (the
   acceptance configuration). *)
let fast_bounds = { Superenum.default_bounds with max_pins = 4; max_size = 3 }

(* Generation is a pure function of (library, bounds): the .sglib
   bytes must not depend on how many domains enumerated, nor on the
   run. *)
let test_deterministic () =
  List.iter
    (fun (lib_name, bounds) ->
      let base = Option.get (Libraries.by_name lib_name) in
      let text jobs = Superlib.to_string (fst (Superlib.make ~bounds ~jobs base)) in
      let reference = text 1 in
      check tbool (lib_name ^ ": generation emits gates") true
        (String.length reference > 0
        && (fst (Superlib.make ~bounds ~jobs:1 base)).Superlib.supergates <> []);
      List.iter
        (fun jobs ->
          check tbool
            (Printf.sprintf "%s: jobs=%d bytes = jobs=1 bytes" lib_name jobs)
            true
            (String.equal reference (text jobs)))
        [ 2; 4 ];
      (* Same run twice: byte-identical too. *)
      check tbool (lib_name ^ ": rerun identical") true
        (String.equal reference (text 1)))
    [ ("minimal", Superenum.default_bounds); ("44-1", fast_bounds) ]

(* Invariants of every emitted supergate. *)
let test_emitted_gates () =
  let base = Libraries.lib44_1_like () in
  let sgl, stats = Superlib.make ~bounds:fast_bounds base in
  check tbool "some considered" true (stats.Superenum.considered > 0);
  check tint "emitted = list length" stats.Superenum.emitted
    (List.length sgl.Superlib.supergates);
  List.iter
    (fun g ->
      let name = g.Gate.gate_name in
      check tbool (name ^ " named sg*") true
        (String.length name > 2 && String.sub name 0 2 = "sg");
      check tbool (name ^ " tagged Super") true (Gate.is_super g);
      check tbool (name ^ " pin count in 2..max_pins") true
        (Gate.num_pins g >= 2
        && Gate.num_pins g <= fast_bounds.Superenum.max_pins);
      check tbool (name ^ " not constant") true (Gate.is_constant g = None);
      check tint (name ^ " full support") (Gate.num_pins g)
        (List.length (Truth.support g.Gate.func));
      (* Delays sit on the 1e-4 grid so genlib text round-trips. *)
      Array.iteri
        (fun i _ ->
          let d = Gate.intrinsic_delay g i in
          check (Alcotest.float 1e-9)
            (Printf.sprintf "%s pin %d delay quantized" name i)
            (Supergate.quantize d) d)
        g.Gate.pins)
    sgl.Superlib.supergates

(* The augmented library's pattern set is a strict superset of the
   base library's, so the labeling DP can only improve: every node's
   optimal arrival with the augmented library is <= the base arrival,
   and the mapped netlist still computes the subject functions. *)
let qc_never_worse =
  let base = Libraries.minimal () in
  let sgl, _ = Superlib.make base in
  let aug = Superlib.augment base sgl in
  let db_base = Matchdb.prepare base in
  let db_aug = Matchdb.prepare aug in
  QCheck.Test.make ~count:20
    ~name:"supergate augmentation never worsens labels (and stays equivalent)"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:80 () in
      let g = Subject.of_network net in
      let n_inputs = List.length (Subject.pi_ids g) in
      let rb = Mapper.map Mapper.Dag db_base g in
      let ra = Mapper.map Mapper.Dag db_aug g in
      let pointwise =
        Array.for_all2
          (fun a b -> a <= b +. 1e-9)
          ra.Mapper.labels rb.Mapper.labels
      in
      let delay_le =
        Netlist.delay ra.Mapper.netlist
        <= Netlist.delay rb.Mapper.netlist +. 1e-9
      in
      let equivalent =
        Equiv.is_equivalent
          (Equiv.compare_sims ~rounds:4 ~n_inputs
             (fun w -> Simulate.subject g w)
             (fun w -> Simulate.netlist ra.Mapper.netlist w))
      in
      pointwise && delay_le && equivalent)

(* The acceptance configuration: a depth-2 library generated from
   lib2 must strictly beat base lib2 on at least two bench circuits,
   with equivalent netlists, and the mapper must report supergate
   usage. *)
let test_strict_improvement_lib2 () =
  let base = Libraries.lib2_like () in
  let sgl, _ = Superlib.make ~bounds:fast_bounds ~jobs:2 base in
  let aug = Superlib.augment base sgl in
  let db_base = Matchdb.prepare base in
  let db_aug = Matchdb.prepare aug in
  let strict_wins = ref 0 in
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      let n_inputs = List.length (Subject.pi_ids g) in
      let rb = Mapper.map Mapper.Dag db_base g in
      let ra = Mapper.map Mapper.Dag db_aug g in
      let db = Netlist.delay rb.Mapper.netlist in
      let da = Netlist.delay ra.Mapper.netlist in
      check tbool (cname ^ ": augmented never worse") true (da <= db +. 1e-9);
      check tbool (cname ^ ": augmented netlist equivalent") true
        (Equiv.is_equivalent
           (Equiv.compare_sims ~rounds:6 ~n_inputs
              (fun w -> Simulate.subject g w)
              (fun w -> Simulate.netlist ra.Mapper.netlist w)));
      if da < db -. 1e-9 then begin
        incr strict_wins;
        (* A strict win must come from supergates actually used. *)
        check tbool (cname ^ ": supergates used") true
          (ra.Mapper.run.Mapper.super_gates_used > 0);
        check tbool (cname ^ ": supergate matches tried") true
          (ra.Mapper.run.Mapper.super_matches_tried > 0)
      end)
    [ ("cla16", Generators.carry_lookahead_adder 16);
      ("ks16", Generators.kogge_stone_adder 16);
      ("mult4", Generators.array_multiplier 4) ];
  check tbool "strictly lower delay on >= 2 circuits" true (!strict_wins >= 2)

(* Supergate stats are zero when mapping with a plain library. *)
let test_no_super_stats_on_base () =
  let g = Subject.of_network (Generators.ripple_adder 8) in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let r = Mapper.map Mapper.Dag db g in
  check tint "no supergate matches" 0 r.Mapper.run.Mapper.super_matches_tried;
  check tint "no supergate instances" 0 r.Mapper.run.Mapper.super_gates_used

(* Parallel mapping agrees with sequential on an augmented library
   (supergates are ordinary gates to the whole pipeline). *)
let test_parmap_agrees_on_augmented () =
  let base = Libraries.lib44_1_like () in
  let sgl, _ = Superlib.make ~bounds:fast_bounds base in
  let db = Matchdb.prepare (Superlib.augment base sgl) in
  let g = Subject.of_network (Generators.kogge_stone_adder 16) in
  let seq = Mapper.map Mapper.Dag db g in
  List.iter
    (fun jobs ->
      let par = Mapper.map ~jobs Mapper.Dag db g in
      check tbool
        (Printf.sprintf "jobs=%d labels identical" jobs)
        true
        (seq.Mapper.labels = par.Mapper.labels);
      check tint
        (Printf.sprintf "jobs=%d super usage identical" jobs)
        seq.Mapper.run.Mapper.super_gates_used
        par.Mapper.run.Mapper.super_gates_used)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "super"
    [ ( "determinism",
        [ Alcotest.test_case "bytes identical, jobs 1/2/4" `Quick
            test_deterministic ] );
      ( "gates",
        [ Alcotest.test_case "emitted invariants" `Quick test_emitted_gates;
          Alcotest.test_case "base maps report zero" `Quick
            test_no_super_stats_on_base ] );
      ( "mapping",
        [ QCheck_alcotest.to_alcotest qc_never_worse;
          Alcotest.test_case "strict lib2 win" `Quick
            test_strict_improvement_lib2;
          Alcotest.test_case "parmap agreement" `Quick
            test_parmap_agrees_on_augmented ] ) ]
