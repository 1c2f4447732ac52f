(* Retiming: the Leiserson-Saxe machinery and the sequential mapping
   pipeline of paper §4. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_core
open Dagmap_sim
open Dagmap_circuits
open Dagmap_retime

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float 1e-6

(* A two-stage pipeline whose two output latches can be spread by
   retiming: host ->0 A(5) ->0 B(5) ->2 host. Initial period 10
   (A and B combinational); optimum 5 (one latch moved between A
   and B). The vertex delay 5 is a hard lower bound. *)
let pipeline () =
  let g = Retiming.create () in
  let a = Retiming.add_vertex g ~delay:5.0 in
  let b = Retiming.add_vertex g ~delay:5.0 in
  Retiming.add_edge g Retiming.host a ~weight:0;
  Retiming.add_edge g a b ~weight:0;
  Retiming.add_edge g b Retiming.host ~weight:2;
  g

(* A latency-constrained ring (Leiserson-Saxe flavor): the host edges
   pin r at both ends, so the 3+3+3 chain cannot be broken and the
   minimum period stays 9. *)
let ring () =
  let g = Retiming.create () in
  let v7 = Retiming.add_vertex g ~delay:7.0 in
  let v3a = Retiming.add_vertex g ~delay:3.0 in
  let v3b = Retiming.add_vertex g ~delay:3.0 in
  let v3c = Retiming.add_vertex g ~delay:3.0 in
  Retiming.add_edge g v7 v3a ~weight:1;
  Retiming.add_edge g v3a v3b ~weight:0;
  Retiming.add_edge g v3b v3c ~weight:0;
  Retiming.add_edge g v3c v7 ~weight:1;
  Retiming.add_edge g Retiming.host v7 ~weight:0;
  Retiming.add_edge g v3c Retiming.host ~weight:0;
  g

let test_clock_period () =
  check tfloat "pipeline period" 10.0 (Retiming.clock_period (pipeline ()) ());
  check tfloat "ring period" 9.0 (Retiming.clock_period (ring ()) ())

let test_feasible_and_min_period () =
  let g = pipeline () in
  (match Retiming.feasible g 5.0 with
   | Some r ->
     check tbool "legal" true (Retiming.is_legal g r);
     check tbool "achieves 5" true
       (Retiming.clock_period g ~retiming:r () <= 5.0 +. 1e-9)
   | None -> Alcotest.fail "period 5 should be feasible");
  (match Retiming.feasible g 4.5 with
   | Some _ -> Alcotest.fail "period 4.5 should be infeasible"
   | None -> ());
  let period, r = Retiming.min_period g in
  check tfloat "min period 5" 5.0 period;
  check tbool "result legal" true (Retiming.is_legal g r);
  (* The IO-pinned ring cannot be improved below 9. *)
  let ring_period, ring_r = Retiming.min_period (ring ()) in
  check tfloat "ring stuck at 9" 9.0 ring_period;
  check tbool "ring retiming legal" true (Retiming.is_legal (ring ()) ring_r)

let test_latch_count_conserved_on_cycles () =
  let g = ring () in
  let _, r = Retiming.min_period g in
  (* Retiming conserves the latch count around every cycle; for this
     single-cycle graph the ring total is 2 before and after. *)
  let ring_total = ref 0 in
  Retiming.retimed_weight g r (fun u v w ->
      if u <> Retiming.host && v <> Retiming.host then
        ring_total := !ring_total + w);
  check tint "ring latches" 2 !ring_total

let test_identity_when_already_optimal () =
  (* A purely combinational pipeline between host edges cannot be
     improved. *)
  let g = Retiming.create () in
  let a = Retiming.add_vertex g ~delay:2.0 in
  let b = Retiming.add_vertex g ~delay:2.0 in
  Retiming.add_edge g Retiming.host a ~weight:0;
  Retiming.add_edge g a b ~weight:0;
  Retiming.add_edge g b Retiming.host ~weight:0;
  let period, _ = Retiming.min_period g in
  check tfloat "cannot improve" 4.0 period

let test_zero_weight_cycle_fails () =
  let g = Retiming.create () in
  let a = Retiming.add_vertex g ~delay:1.0 in
  let b = Retiming.add_vertex g ~delay:1.0 in
  Retiming.add_edge g a b ~weight:0;
  Retiming.add_edge g b a ~weight:0;
  match Retiming.clock_period g () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected zero-weight cycle failure"

(* --- network graph extraction -------------------------------------- *)

let test_network_graph_weights () =
  (* x --latch--latch--> f: one edge of weight 2. *)
  let net = Network.create () in
  let x = Network.add_pi net "x" in
  let q1 = Network.add_latch net x in
  let q2 = Network.add_latch net q1 in
  let f = Network.add_logic net Bexpr.(not_ (var 0)) [| q2 |] in
  Network.add_po net "f" f;
  let g, vertex = Seq_map.network_graph net in
  check tint "two vertices (host + f)" 2 (Retiming.num_vertices g);
  let found = ref false in
  Retiming.retimed_weight g
    (Array.make (Retiming.num_vertices g) 0)
    (fun u v w ->
      if u = Retiming.host && v = vertex.(f) then begin
        found := true;
        check tint "latch chain weight" 2 w
      end);
  check tbool "edge found" true !found

let test_apply_network_retiming_legal () =
  let net = Generators.pipelined_parity 16 3 in
  let g, _ = Seq_map.network_graph net in
  let before = Retiming.clock_period g () in
  let period, r = Retiming.min_period g in
  check tbool "unit-delay retiming improves the parity pipeline" true
    (period < before -. 0.5);
  let retimed = Seq_map.apply_network_retiming net r in
  Network.validate retimed;
  (* The rebuilt network achieves the predicted period. *)
  let g2, _ = Seq_map.network_graph retimed in
  check tfloat "rebuilt period" period (Retiming.clock_period g2 ());
  (* Combinational function with all latches forced transparent is
     preserved... structurally: same PI/PO counts. *)
  check tint "same pis" (List.length (Network.pis net))
    (List.length (Network.pis retimed));
  check tint "same pos" (List.length (Network.pos net))
    (List.length (Network.pos retimed))

(* --- sequential mapping pipeline ------------------------------------ *)

let test_seq_map_lfsr () =
  let net = Generators.lfsr 12 in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let r = Seq_map.run db Mapper.Dag net in
  check tbool "periods positive" true
    (r.Seq_map.period_before > 0.0 && r.Seq_map.period_after > 0.0);
  check tbool "retiming never hurts" true
    (r.Seq_map.period_after <= r.Seq_map.period_before +. 1e-9);
  check tbool "latches present" true (r.Seq_map.latches_before > 0)

let test_seq_map_pipelined_parity () =
  let net = Generators.pipelined_parity 32 4 in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let r = Seq_map.run db Mapper.Dag net in
  (* All latch stages sit at the output, so retiming must spread them
     into the XOR tree and shorten the period substantially. *)
  check tbool
    (Printf.sprintf "period improves (%.2f -> %.2f)" r.Seq_map.period_before
       r.Seq_map.period_after)
    true
    (r.Seq_map.period_after < r.Seq_map.period_before /. 1.5);
  (* The mapped core is still combinationally equivalent. *)
  let g = Dagmap_subject.Subject.of_network net in
  let verdict =
    Equiv.compare_sims
      ~n_inputs:(List.length (Dagmap_subject.Subject.pi_ids g))
      (Simulate.subject g)
      (Simulate.netlist r.Seq_map.netlist)
  in
  check tbool "mapped core equivalent" true (Equiv.is_equivalent verdict)

let test_reduce_latches () =
  (* The parity pipeline's min-period retiming carries many excess
     registers; reduction must keep period and legality while
     shrinking the count. *)
  let net = Generators.pipelined_parity 32 4 in
  let g, _ = Seq_map.network_graph net in
  let period, r = Retiming.min_period g in
  let before = Retiming.total_latches g r in
  let reduced = Retiming.reduce_latches g ~period r in
  check tbool "legal after reduction" true (Retiming.is_legal g reduced);
  check tbool "period preserved" true
    (Retiming.clock_period g ~retiming:reduced () <= period +. 1e-9);
  check tbool
    (Printf.sprintf "latch count reduced (%d -> %d)" before
       (Retiming.total_latches g reduced))
    true
    (Retiming.total_latches g reduced <= before)

(* --- optimal sequential mapping (Seq_opt) --------------------------- *)

let test_seq_opt_dominates_three_step () =
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  List.iter
    (fun net ->
      let heuristic = Seq_map.run db Mapper.Dag net in
      let optimal = Seq_opt.min_period db Mapper.Dag net in
      check tbool
        (Printf.sprintf "optimal %.3f <= 3-step %.3f" optimal
           heuristic.Seq_map.period_after)
        true
        (optimal <= heuristic.Seq_map.period_after +. 1e-3))
    [ Generators.lfsr 10; Generators.pipelined_parity 32 3 ]

let test_seq_opt_decision_consistency () =
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let net = Generators.lfsr 8 in
  let optimal = Seq_opt.min_period db Mapper.Dag net in
  (match Seq_opt.check_period db Mapper.Dag net (optimal +. 0.05) with
   | Seq_opt.Feasible _ -> ()
   | Seq_opt.Infeasible -> Alcotest.fail "period above optimum must be feasible");
  (match Seq_opt.check_period db Mapper.Dag net (optimal /. 2.0) with
   | Seq_opt.Infeasible -> ()
   | Seq_opt.Feasible _ ->
     Alcotest.fail "period far below optimum must be infeasible")

let test_seq_opt_rejects_combinational () =
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let net = Generators.parity 4 in
  match Seq_opt.check_period db Mapper.Dag net 10.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for combinational input"

let test_seq_map_tree_vs_dag () =
  let net = Generators.lfsr 10 in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let rt = Seq_map.run db Mapper.Tree net in
  let rd = Seq_map.run db Mapper.Dag net in
  check tbool "dag comb delay <= tree" true
    (rd.Seq_map.comb_delay <= rt.Seq_map.comb_delay +. 1e-9)

let () =
  Alcotest.run "retime"
    [ ( "leiserson-saxe",
        [ Alcotest.test_case "clock period" `Quick test_clock_period;
          Alcotest.test_case "feasible/min period" `Quick
            test_feasible_and_min_period;
          Alcotest.test_case "cycle latch conservation" `Quick
            test_latch_count_conserved_on_cycles;
          Alcotest.test_case "already optimal" `Quick
            test_identity_when_already_optimal;
          Alcotest.test_case "zero-weight cycle" `Quick
            test_zero_weight_cycle_fails;
          Alcotest.test_case "reduce latches" `Quick test_reduce_latches ] );
      ( "network graphs",
        [ Alcotest.test_case "latch chain weights" `Quick
            test_network_graph_weights;
          Alcotest.test_case "apply retiming" `Quick
            test_apply_network_retiming_legal ] );
      ( "sequential mapping",
        [ Alcotest.test_case "lfsr" `Quick test_seq_map_lfsr;
          Alcotest.test_case "pipelined parity" `Quick
            test_seq_map_pipelined_parity;
          Alcotest.test_case "tree vs dag" `Quick test_seq_map_tree_vs_dag ] );
      ( "optimal (pan-liu)",
        [ Alcotest.test_case "dominates three-step" `Quick
            test_seq_opt_dominates_three_step;
          Alcotest.test_case "decision consistency" `Quick
            test_seq_opt_decision_consistency;
          Alcotest.test_case "rejects combinational" `Quick
            test_seq_opt_rejects_combinational ] ) ]
