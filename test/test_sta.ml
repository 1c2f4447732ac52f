(* Static timing analysis: arrival/required/slack invariants and
   critical-path extraction. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_timing
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-6

let mapped_example () =
  let net = Generators.alu 8 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  (Mapper.map Mapper.Dag db g).Mapper.netlist

let test_arrival_agrees_with_netlist () =
  let nl = mapped_example () in
  let report = Sta.analyze nl in
  let reference = Netlist.arrival_times nl in
  Array.iteri
    (fun i a -> check tfloat (Printf.sprintf "arrival %d" i) reference.(i) a)
    report.Sta.arrival;
  check tfloat "worst delay" (Netlist.delay nl) report.Sta.worst_delay

let test_slack_invariants () =
  let nl = mapped_example () in
  let report = Sta.analyze nl in
  Array.iteri
    (fun i s ->
      check tbool (Printf.sprintf "slack %d nonnegative" i) true (s >= -1e-6))
    report.Sta.slack;
  let min_slack = Array.fold_left Float.min infinity report.Sta.slack in
  check tbool "critical slack zero" true (Float.abs min_slack < 1e-6)

let test_critical_path_structure () =
  let nl = mapped_example () in
  let report = Sta.analyze nl in
  check tbool "path nonempty" true (report.Sta.critical_path <> []);
  let rec increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      a.Sta.pe_arrival <= b.Sta.pe_arrival +. 1e-9 && increasing rest
  in
  check tbool "arrivals increase" true (increasing report.Sta.critical_path);
  let last =
    List.nth report.Sta.critical_path
      (List.length report.Sta.critical_path - 1)
  in
  check tfloat "path ends at worst delay" report.Sta.worst_delay
    last.Sta.pe_arrival;
  List.iter
    (fun pe ->
      check tbool "path element slack" true
        (Float.abs report.Sta.slack.(pe.Sta.pe_instance) < 1e-6))
    report.Sta.critical_path

let test_relaxed_required_time () =
  let nl = mapped_example () in
  let d = Netlist.delay nl in
  let report = Sta.analyze ~required_time:(d +. 5.0) nl in
  let tight = Sta.analyze nl in
  Array.iteri
    (fun i s ->
      check tfloat
        (Printf.sprintf "slack %d shifted" i)
        (tight.Sta.slack.(i) +. 5.0)
        s)
    report.Sta.slack;
  check Alcotest.int "nothing critical under relaxation" 0
    (Sta.num_critical report 1.0)

let test_num_critical_counts () =
  let nl = mapped_example () in
  let report = Sta.analyze nl in
  let n = Sta.num_critical report 1e-6 in
  check tbool "at least the path is critical" true
    (n >= List.length report.Sta.critical_path)

let test_deep_chain () =
  (* Regression: the topological visits in Netlist, Sta and Simulate
     were recursive and blew the call stack on chains far shallower
     than this. 100k inverters must validate, analyze and simulate. *)
  let depth = 100_000 in
  let seed_net = Dagmap_logic.Network.create ~name:"deep" () in
  let x = Dagmap_logic.Network.add_pi seed_net "x" in
  let inv_node =
    Dagmap_logic.Network.add_logic seed_net
      Dagmap_logic.Bexpr.(not_ (var 0))
      [| x |]
  in
  Dagmap_logic.Network.add_po seed_net "o" inv_node;
  let g = Subject.of_network seed_net in
  let pi = List.hd (Subject.pi_ids g) in
  let inv =
    Gate.make ~name:"inv" ~area:1.0
      ~pins:[| Gate.simple_pin ~delay:1.0 "a" |]
      Dagmap_logic.Bexpr.(not_ (var 0))
  in
  let instances =
    Array.init depth (fun i ->
        { Netlist.inst_id = i;
          gate = inv;
          inputs =
            [| (if i = 0 then Netlist.D_pi pi else Netlist.D_gate (i - 1)) |];
          subject_root = i;
          covers = [| i |] })
  in
  let nl =
    { Netlist.source = g;
      instances;
      outputs = [ ("o", Netlist.D_gate (depth - 1)) ] }
  in
  Netlist.validate nl;
  let report = Sta.analyze nl in
  check tfloat "chain delay" (float_of_int depth) report.Sta.worst_delay;
  check Alcotest.int "critical path spans the chain" depth
    (List.length report.Sta.critical_path);
  let word = 0x5555_5555_5555_5555L in
  let out = Dagmap_sim.Simulate.netlist nl [| word |] in
  (* An even number of inversions is the identity. *)
  check tbool "simulates through" true (Int64.equal (List.assoc "o" out) word)

let test_cycle_raises () =
  (* A cyclic netlist has no arrival times: STA must fail instead of
     reading arrivals of fanins it has not visited yet. Close a loop
     through an instance and the instance that drives it. *)
  let nl = mapped_example () in
  let user, driver =
    let rec find i =
      match
        Array.find_opt
          (function Netlist.D_gate _ -> true | _ -> false)
          nl.Netlist.instances.(i).Netlist.inputs
      with
      | Some (Netlist.D_gate j) -> (i, j)
      | _ -> find (i + 1)
    in
    find 0
  in
  let instances =
    Array.mapi
      (fun i inst ->
        if i <> driver then inst
        else
          { inst with
            Netlist.inputs =
              Array.mapi
                (fun pin d -> if pin = 0 then Netlist.D_gate user else d)
                inst.Netlist.inputs })
      nl.Netlist.instances
  in
  match Sta.analyze { nl with Netlist.instances } with
  | exception Failure _ -> ()
  | (_ : Sta.report) -> Alcotest.fail "STA accepted a cyclic netlist"

let test_pp_path_renders () =
  let nl = mapped_example () in
  let report = Sta.analyze nl in
  let text = Format.asprintf "%a" Sta.pp_path report in
  check tbool "render nonempty" true (String.length text > 20)

let () =
  Alcotest.run "sta"
    [ ( "analysis",
        [ Alcotest.test_case "arrival agreement" `Quick
            test_arrival_agrees_with_netlist;
          Alcotest.test_case "slack invariants" `Quick test_slack_invariants;
          Alcotest.test_case "critical path" `Quick test_critical_path_structure;
          Alcotest.test_case "relaxed required" `Quick test_relaxed_required_time;
          Alcotest.test_case "num critical" `Quick test_num_critical_counts;
          Alcotest.test_case "deep chain" `Quick test_deep_chain;
          Alcotest.test_case "cycle raises" `Quick test_cycle_raises;
          Alcotest.test_case "pp path" `Quick test_pp_path_renders ] ) ]
