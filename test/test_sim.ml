(* Bit-parallel simulation and random equivalence checking. *)

open Dagmap_logic
open Dagmap_subject
open Dagmap_core
open Dagmap_genlib
open Dagmap_sim
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_network_vs_subject () =
  (* The two simulators agree word-for-word. *)
  List.iter
    (fun net ->
      let g = Subject.of_network net in
      let n = Simulate.num_inputs_network net in
      let st = Random.State.make [| 11 |] in
      for _ = 1 to 10 do
        let words = Simulate.random_words st n in
        let a = Simulate.network net words in
        let b = Simulate.subject g words in
        List.iter
          (fun (name, w) ->
            check tbool
              (Printf.sprintf "%s agrees" name)
              true
              (Int64.equal w (List.assoc name b)))
          a
      done)
    [ Generators.ripple_adder 6; Generators.alu 4; Generators.parity 9 ]

(* [nl] with its instances moved to shuffled indices: the staged
   simulator must not depend on the instances' storage order. *)
let shuffled_netlist st nl =
  let n = Array.length nl.Netlist.instances in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let remap = function
    | Netlist.D_gate j -> Netlist.D_gate perm.(j)
    | (Netlist.D_pi _ | Netlist.D_const _) as d -> d
  in
  let instances = Array.copy nl.Netlist.instances in
  Array.iteri
    (fun i inst ->
      instances.(perm.(i)) <-
        { inst with
          Netlist.inst_id = perm.(i);
          inputs = Array.map remap inst.Netlist.inputs })
    nl.Netlist.instances;
  { nl with
    Netlist.instances;
    outputs = List.map (fun (name, d) -> (name, remap d)) nl.Netlist.outputs }

let test_netlist_word_sim_matches_bool_eval () =
  (* Lane by lane against the scalar [Netlist.eval], for dag, tree and
     cut covers, each also with its instances renumbered. *)
  let net = Generators.comparator 5 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let cut =
    (Dagmap_cutmap.Cut_mapper.map (Matchdb.boolean db) g)
      .Dagmap_cutmap.Cut_mapper.netlist
  in
  let st = Random.State.make [| 23 |] in
  let covers =
    [ ("dag", (Mapper.map Mapper.Dag db g).Mapper.netlist);
      ("tree", (Mapper.map Mapper.Tree db g).Mapper.netlist);
      ("cut", cut) ]
  in
  let n = List.length (Subject.pi_ids g) in
  List.iter
    (fun (tag, nl) ->
      List.iter
        (fun (tag, nl) ->
          let sim = Simulate.netlist nl in
          for _ = 1 to 3 do
            let words = Simulate.random_words st n in
            let word_results = sim words in
            for lane = 0 to 63 do
              let asg =
                Array.map
                  (fun w ->
                    Int64.logand (Int64.shift_right_logical w lane) 1L <> 0L)
                  words
              in
              let bool_results = Netlist.eval nl asg in
              List.iter
                (fun (name, w) ->
                  let bit =
                    Int64.logand (Int64.shift_right_logical w lane) 1L <> 0L
                  in
                  check tbool
                    (Printf.sprintf "%s %s lane %d" tag name lane)
                    (List.assoc name bool_results)
                    bit)
                word_results
            done
          done)
        [ (tag, nl); (tag ^ " shuffled", shuffled_netlist st nl) ])
    covers

(* The bit-serial reference: for each of the 64 lanes, the truth-table
   bit addressed by the lane's input bits. *)
let eval_gate_word func inputs =
  let n = Array.length inputs in
  let out = ref 0L in
  for lane = 0 to 63 do
    let idx = ref 0 in
    for pin = 0 to n - 1 do
      if Int64.logand (Int64.shift_right_logical inputs.(pin) lane) 1L <> 0L
      then idx := !idx lor (1 lsl pin)
    done;
    if Truth.get_bit func !idx then
      out := Int64.logor !out (Int64.shift_left 1L lane)
  done;
  !out

(* One instance of [gate] over fresh PIs, driving output "o". *)
let one_gate_netlist gate =
  let bld = Subject.Builder.create () in
  let pis =
    Array.init (Gate.num_pins gate) (fun p ->
        Subject.Builder.pi bld (Printf.sprintf "p%d" p))
  in
  { Netlist.source = Subject.Builder.finish bld;
    instances =
      [| { Netlist.inst_id = 0;
           gate;
           inputs = Array.map (fun id -> Netlist.D_pi id) pis;
           subject_root = 0;
           covers = [||] } |];
    outputs = [ ("o", Netlist.D_gate 0) ] }

(* Pin [p]'s word when lane [m] carries minterm [m]. *)
let minterm_word p =
  let w = ref 0L in
  for m = 0 to 63 do
    if (m lsr p) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L m)
  done;
  !w

let test_gate_programs_vs_oracle () =
  (* Every gate's compiled word program against the bit-serial oracle
     on 8 random rounds, and on all 2^k minterms when k <= 6. *)
  let st = Random.State.make [| 41 |] in
  let supergates = Oracle.supergates () in
  check tbool "supergates present" true
    (List.exists Gate.is_super supergates.Libraries.gates);
  List.iter
    (fun (lib : Libraries.t) ->
      List.iter
        (fun gate ->
          let k = Gate.num_pins gate in
          let sim = Simulate.netlist (one_gate_netlist gate) in
          let tag = lib.Libraries.lib_name ^ "/" ^ gate.Gate.gate_name in
          for round = 1 to 8 do
            let words = Simulate.random_words st k in
            check tbool
              (Printf.sprintf "%s round %d" tag round)
              true
              (Int64.equal
                 (List.assoc "o" (sim words))
                 (eval_gate_word gate.Gate.func words))
          done;
          if k <= 6 then begin
            let w = List.assoc "o" (sim (Array.init k minterm_word)) in
            for m = 0 to (1 lsl k) - 1 do
              check tbool
                (Printf.sprintf "%s minterm %d" tag m)
                (Truth.get_bit gate.Gate.func m)
                (Int64.logand (Int64.shift_right_logical w m) 1L <> 0L)
            done
          end)
        lib.Libraries.gates)
    [ Libraries.minimal ();
      Libraries.lib2_like ();
      Option.get (Libraries.by_name "44-1");
      Option.get (Libraries.by_name "44-3");
      supergates ]

let test_staged_round_allocation () =
  (* A staged round allocates its output list and nothing per gate or
     per subject node. *)
  let net = Generators.synthetic_soc ~seed:1 ~nodes:20_000 () in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Option.get (Libraries.by_name "44-3")) in
  let nl = (Mapper.map Mapper.Tree db g).Mapper.netlist in
  check tbool "at least 40k gates" true (Netlist.num_gates nl >= 40_000);
  let words =
    Simulate.random_words (Random.State.make [| 9 |])
      (List.length (Subject.pi_ids g))
  in
  let per_round sim =
    ignore (Sys.opaque_identity (sim words));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (sim words));
    Gc.minor_words () -. w0
  in
  let outputs = List.length nl.Netlist.outputs in
  let bound = float_of_int ((16 * outputs) + 256) in
  let sn = per_round (Simulate.netlist nl) in
  let ss = per_round (Simulate.subject g) in
  check tbool
    (Printf.sprintf "netlist round: %.0f words for %d outputs" sn outputs)
    true (sn <= bound);
  check tbool
    (Printf.sprintf "subject round: %.0f words for %d outputs" ss outputs)
    true (ss <= bound)

let test_latch_pseudo_outputs () =
  let net = Generators.lfsr 4 in
  let n = Simulate.num_inputs_network net in
  check tint "inputs = enable + 4 latch outs" 5 n;
  let words = Array.make n 0L in
  let results = Simulate.network net words in
  check tbool "latch inputs reported" true
    (List.mem_assoc "$latch_in0" results);
  (* Agreement with the subject simulator on latch inputs too. *)
  let g = Subject.of_network net in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 5 do
    let words = Simulate.random_words st n in
    let a = Simulate.network net words in
    let b = Simulate.subject g words in
    List.iter
      (fun (name, w) ->
        check tbool (name ^ " agrees") true (Int64.equal w (List.assoc name b)))
      a
  done

let test_equiv_detects_equivalence () =
  let net = Generators.ripple_adder 5 in
  let g = Subject.of_network net in
  let verdict =
    Equiv.compare_sims ~n_inputs:(Simulate.num_inputs_network net)
      (fun words -> Simulate.network net words)
      (Simulate.subject g)
  in
  check tbool "equivalent" true (Equiv.is_equivalent verdict)

let test_equiv_detects_difference () =
  let net = Generators.ripple_adder 3 in
  let broken = Generators.ripple_adder 3 in
  (* Mutate one node's function: flip the final carry. *)
  let n_inputs = Simulate.num_inputs_network net in
  let verdict =
    Equiv.compare_sims ~n_inputs
      (fun words -> Simulate.network net words)
      (fun words ->
        List.map
          (fun (name, w) ->
            if String.equal name "cout" then (name, Int64.lognot w) else (name, w))
          (Simulate.network broken words))
  in
  (match verdict with
   | Equiv.Counterexample { output; inputs } ->
     check Alcotest.string "culprit output" "cout" output;
     check tint "counterexample width" n_inputs (Array.length inputs)
   | Equiv.Equivalent | Equiv.Output_mismatch _ ->
     Alcotest.fail "expected a counterexample")

let test_equiv_detects_missing_output () =
  let net = Generators.parity 4 in
  let verdict =
    Equiv.compare_sims ~n_inputs:4
      (fun words -> Simulate.network net words)
      (fun _ -> [])
  in
  match verdict with
  | Equiv.Output_mismatch { missing; _ } ->
    check (Alcotest.list Alcotest.string) "missing par" [ "par" ] missing
  | Equiv.Equivalent | Equiv.Counterexample _ ->
    Alcotest.fail "expected output mismatch"

let test_equiv_detects_extra_output () =
  (* Regression: extra outputs on the second simulator used to be
     silently ignored whenever nothing was missing. *)
  let net = Generators.parity 4 in
  let verdict =
    Equiv.compare_sims ~n_inputs:4
      (fun words -> Simulate.network net words)
      (fun words -> ("extra", 0L) :: Simulate.network net words)
  in
  match verdict with
  | Equiv.Output_mismatch { missing; extra } ->
    check (Alcotest.list Alcotest.string) "nothing missing" [] missing;
    check (Alcotest.list Alcotest.string) "extra detected" [ "extra" ] extra
  | Equiv.Equivalent | Equiv.Counterexample _ ->
    Alcotest.fail "expected output mismatch on extra output"

let test_counterexample_is_real () =
  (* The returned assignment really distinguishes the circuits. *)
  let net = Generators.comparator 3 in
  let sim1 words = Simulate.network net words in
  let sim2 words =
    List.map
      (fun (name, w) ->
        if String.equal name "lt" then (name, Int64.logxor w 1L) else (name, w))
      (Simulate.network net words)
  in
  match Equiv.compare_sims ~n_inputs:6 sim1 sim2 with
  | Equiv.Counterexample { output; inputs } ->
    let words =
      Array.map (fun b -> if b then 1L else 0L) inputs
    in
    let v1 = List.assoc output (sim1 words) in
    let v2 = List.assoc output (sim2 words) in
    check tbool "differs on lane 0" true
      (Int64.logand (Int64.logxor v1 v2) 1L = 1L)
  | Equiv.Equivalent ->
    (* The mutation only affects lane 0; the extreme all-zero round
       may not expose it — but lane 0 of round 1+ will. *)
    Alcotest.fail "expected counterexample"
  | Equiv.Output_mismatch _ -> Alcotest.fail "unexpected mismatch"

let test_random_words_deterministic () =
  let a = Simulate.random_words (Random.State.make [| 3 |]) 5 in
  let b = Simulate.random_words (Random.State.make [| 3 |]) 5 in
  check tbool "deterministic" true (a = b)

let test_gate_word_eval_vs_truth () =
  (* Simulate.netlist's word-level gate evaluation agrees with the
     scalar truth-table evaluation (indirectly, via a 1-gate netlist). *)
  let bld = Subject.Builder.create () in
  let x = Subject.Builder.pi bld "x" in
  let y = Subject.Builder.pi bld "y" in
  let z = Subject.Builder.pi bld "z" in
  let n1 = Subject.Builder.nand bld x y in
  let n2 = Subject.Builder.nand bld n1 z in
  Subject.Builder.output bld "o" n2;
  let g = Subject.Builder.finish bld in
  let maj =
    Gate.make ~name:"anything" ~area:1.0
      ~pins:(Array.init 3 (fun i -> Gate.simple_pin (Printf.sprintf "p%d" i)))
      Bexpr.(not_ (and2 (not_ (and2 (var 0) (var 1))) (var 2)))
  in
  let nl =
    { Netlist.source = g;
      instances =
        [| { Netlist.inst_id = 0; gate = maj;
             inputs = [| Netlist.D_pi x; Netlist.D_pi y; Netlist.D_pi z |];
             subject_root = n2; covers = [| n1; n2 |] } |];
      outputs = [ ("o", Netlist.D_gate 0) ] }
  in
  Netlist.validate nl;
  let st = Random.State.make [| 77 |] in
  let words = Simulate.random_words st 3 in
  let w = List.assoc "o" (Simulate.netlist nl words) in
  let expected = List.assoc "o" (Simulate.subject g words) in
  check tbool "word eval matches" true (Int64.equal w expected)

let () =
  Alcotest.run "sim"
    [ ( "simulators",
        [ Alcotest.test_case "network vs subject" `Quick test_network_vs_subject;
          Alcotest.test_case "netlist word sim" `Quick
            test_netlist_word_sim_matches_bool_eval;
          Alcotest.test_case "latch pseudo outputs" `Quick
            test_latch_pseudo_outputs;
          Alcotest.test_case "gate word eval" `Quick test_gate_word_eval_vs_truth;
          Alcotest.test_case "gate programs vs oracle" `Quick
            test_gate_programs_vs_oracle;
          Alcotest.test_case "staged round allocation" `Quick
            test_staged_round_allocation;
          Alcotest.test_case "random words" `Quick test_random_words_deterministic ] );
      ( "equivalence",
        [ Alcotest.test_case "detects equivalence" `Quick
            test_equiv_detects_equivalence;
          Alcotest.test_case "detects difference" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "detects missing output" `Quick
            test_equiv_detects_missing_output;
          Alcotest.test_case "detects extra output" `Quick
            test_equiv_detects_extra_output;
          Alcotest.test_case "counterexample real" `Quick
            test_counterexample_is_real ] ) ]
