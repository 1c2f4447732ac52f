(* lib/check: the three post-map auditors and the fuzz harness. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_flow
open Dagmap_check

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let modes = [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ]

let the_db = lazy (Matchdb.prepare (Libraries.lib2_like ()))

let test_audit_clean_benchmarks () =
  let db = Lazy.force the_db in
  List.iter
    (fun (name, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun mode ->
          let r = Mapper.map mode db g in
          match Check.audit_result ~rounds:4 g r with
          | [] -> ()
          | issue :: _ ->
            Alcotest.failf "%s/%s: %s" name (Mapper.mode_name mode)
              (Format.asprintf "%a" Check.pp_issue issue))
        modes)
    [ ("adder8", Generators.ripple_adder 8);
      ("alu4", Generators.alu 4);
      ("cmp6", Generators.comparator 6);
      ("parity12", Generators.parity 12) ]

let test_structural_catches_corruption () =
  (* Clone an instance onto the end of a clean netlist: nothing uses
     the clone (dangling) and its subject root is now implemented
     twice. Then make an instance cover a primary input. *)
  let db = Lazy.force the_db in
  let g = Subject.of_network (Generators.parity 4) in
  let nl = (Mapper.map Mapper.Dag db g).Mapper.netlist in
  check (Alcotest.list Alcotest.string) "clean netlist" []
    (List.map (Format.asprintf "%a" Check.pp_issue) (Check.structural nl));
  let n = Array.length nl.Netlist.instances in
  let clone = { nl.Netlist.instances.(0) with Netlist.inst_id = n } in
  let bad =
    { nl with
      Netlist.instances = Array.append nl.Netlist.instances [| clone |] }
  in
  let issues = Check.structural bad in
  let has frag =
    List.exists
      (function Check.Structural m -> contains m frag | _ -> false)
      issues
  in
  check tbool "duplicate subject root reported" true (has "both implement");
  check tbool "dangling instance reported" true (has "dangling");
  (* No cover may contain a primary input. *)
  let pi = List.hd (Subject.pi_ids g) in
  let inst = nl.Netlist.instances.(0) in
  let covering_pi =
    { nl with
      Netlist.instances =
        Array.mapi
          (fun i x ->
            if i > 0 then x
            else
              { inst with
                Netlist.covers = Array.append inst.Netlist.covers [| pi |] })
          nl.Netlist.instances }
  in
  check (Alcotest.list Alcotest.string) "covered primary input reported"
    [ Printf.sprintf "structural: instance 0 covers primary input %d" pi ]
    (List.map
       (Format.asprintf "%a" Check.pp_issue)
       (Check.structural covering_pi))

let test_delay_audit_is_per_output () =
  (* Skew the prediction of one non-critical output: a worst-delay
     comparison would miss it, the per-output audit must not. *)
  let db = Lazy.force the_db in
  let g = Subject.of_network (Generators.ripple_adder 4) in
  let r = Mapper.map Mapper.Dag db g in
  let predicted = Mapper.predicted_arrivals r in
  check (Alcotest.list Alcotest.string) "labels audit clean" []
    (List.map
       (Format.asprintf "%a" Check.pp_issue)
       (Check.delay ~predicted r.Mapper.netlist));
  (* Perturb the fastest (least critical) predicted output. *)
  let victim, _ =
    List.fold_left
      (fun ((_, best) as acc) (name, a) ->
        if a < best then (name, a) else acc)
      ("", infinity) predicted
  in
  let skewed =
    List.map
      (fun (name, a) -> if name = victim then (name, a +. 0.5) else (name, a))
      predicted
  in
  match Check.delay ~predicted:skewed r.Mapper.netlist with
  | [ Check.Delay_mismatch { output; _ } ] ->
    check Alcotest.string "victim output flagged" victim output
  | issues ->
    Alcotest.failf "expected exactly one delay mismatch, got %d"
      (List.length issues)

let test_functional_catches_wrong_circuit () =
  let db = Lazy.force the_db in
  let g_par = Subject.of_network (Generators.parity 4) in
  let nl = (Mapper.map Mapper.Dag db g_par).Mapper.netlist in
  let g_cmp = Subject.of_network (Generators.comparator 2) in
  match Check.functional ~rounds:2 g_cmp nl with
  | [ Check.Not_equivalent _ ] -> ()
  | _ -> Alcotest.fail "expected a functional issue against the wrong subject"

let test_functional_catches_flipped_minterm () =
  (* Mutation: give one instance whose pins are distinct primary
     inputs and whose output is a primary output a gate that differs
     in exactly one minterm. The functional audit must fire. *)
  let db = Lazy.force the_db in
  (* Product bit 0 of the multiplier is an AND of two inputs. *)
  let g = Subject.of_network (Generators.array_multiplier 3) in
  let nl = (Mapper.map Mapper.Dag db g).Mapper.netlist in
  let candidate i (inst : Netlist.instance) =
    let pis =
      Array.to_list inst.Netlist.inputs
      |> List.filter_map (function Netlist.D_pi id -> Some id | _ -> None)
    in
    List.length pis = Gate.num_pins inst.Netlist.gate
    && List.length (List.sort_uniq compare pis) = List.length pis
    && Gate.num_pins inst.Netlist.gate >= 2
    && List.exists (fun (_, d) -> d = Netlist.D_gate i) nl.Netlist.outputs
  in
  let victim =
    let rec find i =
      if i >= Array.length nl.Netlist.instances then
        Alcotest.fail "no instance on primary inputs drives an output"
      else if candidate i nl.Netlist.instances.(i) then i
      else find (i + 1)
    in
    find 0
  in
  let gate = nl.Netlist.instances.(victim).Netlist.gate in
  let k = Gate.num_pins gate in
  (* Minterm 1 (pin 0 high, the rest low) is absent from both
     all-zero and all-one extreme rounds. *)
  let flipped m = Truth.get_bit gate.Gate.func m <> (m = 1) in
  let cubes =
    List.init (1 lsl k) Fun.id
    |> List.filter flipped
    |> List.map (fun m -> List.init k (fun v -> (v, (m lsr v) land 1 = 1)))
  in
  let mutant =
    Gate.make ~name:(gate.Gate.gate_name ^ "_flip") ~area:gate.Gate.area
      ~pins:gate.Gate.pins (Bexpr.of_cubes cubes)
  in
  for m = 0 to (1 lsl k) - 1 do
    check tbool
      (Printf.sprintf "mutant minterm %d" m)
      (flipped m)
      (Truth.get_bit mutant.Gate.func m)
  done;
  check tint "clean before the mutation" 0
    (List.length (Check.functional g nl));
  let mutated =
    { nl with
      Netlist.instances =
        Array.mapi
          (fun i inst ->
            if i = victim then { inst with Netlist.gate = mutant } else inst)
          nl.Netlist.instances }
  in
  match Check.functional g mutated with
  | [ Check.Not_equivalent _ ] -> ()
  | _ -> Alcotest.fail "a one-minterm mutation escaped the functional audit"

(* QCheck: on random circuits, under every mode, sequential or
   parallel labeling, the full audit is clean — per-output STA arrival
   equals the mapper's label and the cover is simulation-equivalent. *)
let qc_audit_random =
  QCheck.Test.make ~count:15 ~name:"random circuits audit clean (all modes)"
    QCheck.(make Gen.(triple (int_bound 100_000) (int_bound 2) bool))
    (fun (seed, mode_idx, par) ->
      let net = Generators.random_dag ~seed ~inputs:6 ~outputs:3 ~nodes:45 () in
      let g = Subject.of_network net in
      let db = Lazy.force the_db in
      let mode = List.nth modes mode_idx in
      let r = Mapper.map ~jobs:(if par then 4 else 1) mode db g in
      Check.audit_result ~rounds:4 ~seed:7 g r = [])

let test_fuzz_clean () =
  let cfg =
    { (Fuzz.default_config (Libraries.lib2_like ())) with count = 4 }
  in
  let o = Fuzz.run cfg in
  check tint "circuits" 4 o.Fuzz.circuits;
  (* 3 pattern modes and the cut engine x jobs {1,4} per circuit. *)
  check tint "cases" (4 * 8) o.Fuzz.cases;
  check tint "no failures" 0 (List.length o.Fuzz.failures)

let test_fuzz_catches_injected_delay_bug () =
  (* Fault injection: skew every pin delay the labeling pass sees.
     Predictions drift from the STA of the emitted netlist, so the
     delay audit must fail, and the harness must shrink the failure
     and produce a re-parsable BLIF repro. *)
  let cfg =
    { (Fuzz.default_config (Libraries.lib2_like ())) with
      count = 6;
      modes = [ Flow.Pattern Mapper.Tree ];
      jobs = [ 1 ];
      max_failures = 1 }
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Mapper.test_pin_delay_skew := 0.0)
      (fun () ->
        Mapper.test_pin_delay_skew := 1.0;
        Fuzz.run cfg)
  in
  match outcome.Fuzz.failures with
  | [] -> Alcotest.fail "injected bug was not caught"
  | f :: _ ->
    check tbool "shrunk no larger" true
      (f.Fuzz.shrunk_nodes <= f.Fuzz.original_nodes);
    check tbool "delay mismatch reported" true
      (List.exists
         (function Check.Delay_mismatch _ -> true | _ -> false)
         f.Fuzz.issues);
    let path = Filename.temp_file "fuzz_repro" ".blif" in
    Fuzz.write_repro path f;
    let reparsed = Dagmap_blif.Blif.read_file path in
    Sys.remove path;
    check tbool "repro re-parses with outputs" true
      (Network.pos reparsed <> [])

let test_fuzz_deterministic () =
  let cfg =
    { (Fuzz.default_config (Libraries.lib2_like ())) with
      count = 2;
      modes = [ Flow.Pattern Mapper.Dag ];
      jobs = [ 1 ] }
  in
  let a = Fuzz.run cfg and b = Fuzz.run cfg in
  check tint "same cases" a.Fuzz.cases b.Fuzz.cases;
  check tint "same failures" (List.length a.Fuzz.failures)
    (List.length b.Fuzz.failures)

let () =
  Alcotest.run "check"
    [ ( "auditors",
        [ Alcotest.test_case "clean benchmarks" `Quick
            test_audit_clean_benchmarks;
          Alcotest.test_case "structural corruption" `Quick
            test_structural_catches_corruption;
          Alcotest.test_case "per-output delay" `Quick
            test_delay_audit_is_per_output;
          Alcotest.test_case "wrong circuit" `Quick
            test_functional_catches_wrong_circuit;
          Alcotest.test_case "flipped minterm" `Quick
            test_functional_catches_flipped_minterm;
          QCheck_alcotest.to_alcotest qc_audit_random ] );
      ( "fuzz",
        [ Alcotest.test_case "clean sweep" `Quick test_fuzz_clean;
          Alcotest.test_case "injected delay bug" `Quick
            test_fuzz_catches_injected_delay_bug;
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic ] ) ]
