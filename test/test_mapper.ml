(* The mappers: label/netlist agreement, functional equivalence,
   tree-vs-DAG dominance, mode invariants, unmappability. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_sim
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float 1e-6

let libs () =
  List.filter_map Libraries.by_name [ "minimal"; "44-1"; "lib2" ]

let circuits () =
  [ ("adder8", Generators.ripple_adder 8);
    ("cla16", Generators.carry_lookahead_adder 16);
    ("mult4", Generators.array_multiplier 4);
    ("alu4", Generators.alu 4);
    ("parity16", Generators.parity 16);
    ("cmp8", Generators.comparator 8);
    ("rand1", Generators.random_dag ~seed:1 ~inputs:10 ~outputs:5 ~nodes:80 ());
    ("rand2", Generators.random_dag ~seed:2 ~inputs:12 ~outputs:6 ~nodes:120 ()) ]

let modes = [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ]

let test_netlist_validates () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              let r = Mapper.map mode db g in
              Netlist.validate r.Mapper.netlist;
              check tbool
                (Printf.sprintf "%s/%s/%s gates nonzero" cname
                   lib.Libraries.lib_name (Mapper.mode_name mode))
                true
                (Netlist.num_gates r.Mapper.netlist > 0))
            modes)
        (libs ()))
    (circuits ())

let test_labels_equal_netlist_delay () =
  (* The labeling pass predicts exactly the mapped netlist's delay. *)
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              let r = Mapper.map mode db g in
              check tfloat
                (Printf.sprintf "%s/%s/%s label = delay" cname
                   lib.Libraries.lib_name (Mapper.mode_name mode))
                (Mapper.optimal_delay r)
                (Netlist.delay r.Mapper.netlist))
            modes)
        (libs ()))
    (circuits ())

let test_equivalence () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      let n_inputs = List.length (Subject.pi_ids g) in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          List.iter
            (fun mode ->
              let r = Mapper.map mode db g in
              let verdict =
                Equiv.compare_sims ~rounds:8 ~n_inputs
                  (Simulate.subject g)
                  (Simulate.netlist r.Mapper.netlist)
              in
              if not (Equiv.is_equivalent verdict) then
                Alcotest.failf "%s/%s/%s: %s" cname lib.Libraries.lib_name
                  (Mapper.mode_name mode)
                  (Format.asprintf "%a" Equiv.pp_verdict verdict))
            modes)
        (libs ()))
    (circuits ())

let test_dag_dominates_tree () =
  (* Exact matches are a subset of standard matches, so the DAG
     labels (and hence delay) can never be worse. Likewise extended
     vs. standard. *)
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          let d mode = Netlist.delay (Mapper.map mode db g).Mapper.netlist in
          let dt = d Mapper.Tree and dd = d Mapper.Dag in
          let de = d Mapper.Dag_extended in
          check tbool
            (Printf.sprintf "%s/%s dag <= tree (%.3f vs %.3f)" cname
               lib.Libraries.lib_name dd dt)
            true
            (dd <= dt +. 1e-9);
          check tbool
            (Printf.sprintf "%s/%s extended <= dag" cname lib.Libraries.lib_name)
            true
            (de <= dd +. 1e-9))
        (libs ()))
    (circuits ())

let test_tree_no_duplication () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib ->
          let db = Matchdb.prepare lib in
          let r = Mapper.map Mapper.Tree db g in
          check tint
            (Printf.sprintf "%s/%s tree duplication" cname lib.Libraries.lib_name)
            0
            (Netlist.duplication r.Mapper.netlist))
        (libs ()))
    (circuits ())

let test_labels_monotone_bound () =
  (* Each node's label is bounded by fastest-gate-per-level: with the
     minimal library every node needs at least one nand or inv. *)
  let net = Generators.ripple_adder 6 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let r = Mapper.map Mapper.Dag db g in
  let levels = Subject.levels g in
  Array.iteri
    (fun node label ->
      match Subject.kind g node with
      | Subject.Spi -> check tfloat "pi label" 0.0 label
      | Subject.Snand _ | Subject.Sinv _ ->
        (* inv costs 0.5, nand 1.0; a node at level l needs delay >=
           0.5 * ceil(l/?) — use the loose bound 0.5. *)
        check tbool "label positive" true (label >= 0.5 -. 1e-9);
        check tbool "label bounded by unit path" true
          (label <= (float_of_int levels.(node) *. 1.0) +. 1e-9))
    r.Mapper.labels

let test_minimal_library_is_identity_cover () =
  (* With only inv+nand2, mapping reproduces the subject graph
     one-to-one (modulo unreached nodes). *)
  let net = Generators.parity 8 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let r = Mapper.map Mapper.Dag db g in
  check tint "one gate per reachable subject node"
    (Netlist.num_gates r.Mapper.netlist)
    (let reachable = Hashtbl.create 64 in
     let rec visit u =
       if not (Hashtbl.mem reachable u) then begin
         match Subject.kind g u with
         | Subject.Spi -> ()
         | Subject.Sinv _ | Subject.Snand _ ->
           Hashtbl.add reachable u ();
           List.iter visit (Subject.fanins g u)
       end
     in
     Array.iter (fun (_, node) -> visit node) g.Subject.outputs;
     Hashtbl.length reachable)

let test_unmappable_raises () =
  (* A library with only inverters cannot map a NAND. *)
  let inv =
    Gate.make ~name:"inv" ~area:1.0
      ~pins:[| Gate.simple_pin "a" |]
      Bexpr.(not_ (var 0))
  in
  let lib = Libraries.make "invonly" [ inv ] in
  let db = Matchdb.prepare lib in
  let bld = Subject.Builder.create () in
  let x = Subject.Builder.pi bld "x" in
  let y = Subject.Builder.pi bld "y" in
  let n = Subject.Builder.nand bld x y in
  Subject.Builder.output bld "o" n;
  let g = Subject.Builder.finish bld in
  match Mapper.map Mapper.Dag db g with
  | exception Mapper.Unmappable _ -> ()
  | _ -> Alcotest.fail "expected Unmappable"

let test_constant_and_pi_outputs () =
  let net = Network.create () in
  let a = Network.add_pi net "a" in
  let zero = Network.add_logic net (Bexpr.const false) [||] in
  Network.add_po net "wire" a;
  Network.add_po net "zero" zero;
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let r = Mapper.map Mapper.Dag db g in
  check tint "no gates needed" 0 (Netlist.num_gates r.Mapper.netlist);
  let outs = r.Mapper.netlist.Netlist.outputs in
  (match List.assoc "wire" outs with
   | Netlist.D_pi _ -> ()
   | Netlist.D_gate _ | Netlist.D_const _ -> Alcotest.fail "wire should be a PI");
  (match List.assoc "zero" outs with
   | Netlist.D_const false -> ()
   | Netlist.D_pi _ | Netlist.D_gate _ | Netlist.D_const true ->
     Alcotest.fail "zero should be constant false")

let test_rich_library_beats_simple () =
  (* More patterns can only help the optimal delay. *)
  let net = Generators.carry_lookahead_adder 8 in
  let g = Subject.of_network net in
  let d lib = Netlist.delay (Mapper.map Mapper.Dag (Matchdb.prepare lib) g).Mapper.netlist in
  let d_min = d (Libraries.minimal ()) in
  let d_lib2 = d (Libraries.lib2_like ()) in
  check tbool "lib2 <= minimal" true (d_lib2 <= d_min +. 1e-9)

let test_stats_populated () =
  let net = Generators.ripple_adder 4 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let r = Mapper.map Mapper.Dag db g in
  check tbool "matches tried" true (r.Mapper.run.Mapper.matches_tried > 0);
  check tbool "times nonnegative" true
    (r.Mapper.run.Mapper.label_seconds >= 0.0
    && r.Mapper.run.Mapper.cover_seconds >= 0.0)

(* Independent optimality check (the paper's core claim): on tiny
   graphs, enumerate every assignment of one standard match (boxed
   reference matcher) to each gate node, and take, per output, the
   minimum over assignments of the arrival it realizes. The DAG label
   must equal that minimum; extended matches can only beat it and
   exact (tree) matches can only lose to it. *)
let brute_force_arrivals lib g =
  let rooting = Oracle.rooting lib in
  let fanouts = Subject.fanout_counts g in
  let n = Subject.num_nodes g in
  let all_matches =
    Array.init n (fun node ->
        Array.of_list
          (Oracle.node_matches rooting Matcher.Standard g ~fanouts node))
  in
  let outs = g.Subject.outputs in
  let best = Array.make (Array.length outs) infinity in
  let choice = Array.make n 0 in
  let arrival = Array.make n 0.0 in
  let rec assign node =
    if node = n then begin
      for u = 0 to n - 1 do
        if Array.length all_matches.(u) > 0 then
          arrival.(u) <- Oracle.arrival arrival all_matches.(u).(choice.(u))
      done;
      Array.iteri
        (fun i (_, node) -> best.(i) <- Float.min best.(i) arrival.(node))
        outs
    end
    else
      for i = 0 to max 1 (Array.length all_matches.(node)) - 1 do
        choice.(node) <- i;
        assign (node + 1)
      done
  in
  assign 0;
  (outs, best)

(* Library with real choices: inv, nand2, plus compound gates with
   distinctive delays. Each gate has one delay on every pin, so any
   wiring of a gate to a cut realizes the same arrival — which is what
   lets the Boolean matcher's one wiring per gate and function stand
   in for every structural match of that gate. *)
let tiny_lib =
  lazy
    (let mk name delay n expr =
       Gate.make ~name ~area:1.0
         ~pins:
           (Array.init n (fun i ->
                Gate.simple_pin ~delay (Printf.sprintf "p%d" i)))
         expr
     in
     Libraries.make "tiny"
       [ mk "inv" 0.6 1 Bexpr.(not_ (var 0));
         mk "nand2" 1.0 2 Bexpr.(not_ (and2 (var 0) (var 1)));
         mk "and2" 1.3 2 Bexpr.(and2 (var 0) (var 1));
         mk "aoi21" 1.4 3 Bexpr.(not_ (or2 (and2 (var 0) (var 1)) (var 2)));
         mk "nand3" 1.2 3 Bexpr.(not_ (and_list [ var 0; var 1; var 2 ])) ])

(* A random subject: up to 8 NAND/INV nodes over 3 PIs (structural
   hashing may fold some away), the last node and one other as
   outputs. [None] unless it has 1 to 8 gate nodes, the range the
   exhaustive search can afford. *)
let random_small_subject seed =
  let rng = Random.State.make [| seed |] in
  let b = Subject.Builder.create () in
  let nodes = ref (List.init 3 (fun i -> Subject.Builder.pi b (Printf.sprintf "x%d" i))) in
  let pick () = List.nth !nodes (Random.State.int rng (List.length !nodes)) in
  for _ = 1 to 4 + Random.State.int rng 5 do
    let x = pick () and y = pick () in
    let node =
      if x = y || Random.State.int rng 4 = 0 then Subject.Builder.inv b x
      else Subject.Builder.nand b x y
    in
    if not (List.mem node !nodes) then nodes := !nodes @ [ node ]
  done;
  Subject.Builder.output b "o0" (List.nth !nodes (List.length !nodes - 1));
  Subject.Builder.output b "o1" (pick ());
  let g = Subject.Builder.finish b in
  let gates = Subject.num_nodes g - List.length (Subject.pi_ids g) in
  if gates >= 1 && gates <= 8 then Some g else None

let test_optimality_vs_exhaustive () =
  let lib = Lazy.force tiny_lib in
  let db = Matchdb.prepare lib in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match random_small_subject seed with
      | None -> ()
      | Some g ->
        incr checked;
        let outs, optimum = brute_force_arrivals lib g in
        let label mode = (Mapper.map mode db g).Mapper.labels in
        let tree = label Mapper.Tree and dag = label Mapper.Dag in
        let ext = label Mapper.Dag_extended in
        Array.iteri
          (fun i (name, node) ->
            let what = Printf.sprintf "seed %d output %s" seed name in
            check tfloat (what ^ ": dag label = optimum") optimum.(i) dag.(node);
            check tbool (what ^ ": extended <= optimum") true
              (ext.(node) <= optimum.(i) +. 1e-9);
            check tbool (what ^ ": optimum <= tree") true
              (optimum.(i) <= tree.(node) +. 1e-9))
          outs)
    (List.init 40 (fun i -> i));
  check tbool "most seeds exhaustively checked" true (!checked >= 30)

(* The theorem on the cut side. The pins of every standard match form
   a cut no wider than the library's widest gate, and that cut's
   function is the gate's; full enumeration keeps every such cut. So
   the cut engine at unbounded priority must reach a label no worse
   than the Dag label, which the test above pins to the optimum. *)
let test_cut_engine_reaches_optimum () =
  let lib = Lazy.force tiny_lib in
  let db = Matchdb.prepare lib in
  let bdb = Matchdb.boolean db in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      match random_small_subject seed with
      | None -> ()
      | Some g ->
        incr checked;
        let dag = (Mapper.map Mapper.Dag db g).Mapper.labels in
        let cut =
          (Dagmap_cutmap.Cut_mapper.map ~priority:1_000_000 bdb g)
            .Dagmap_cutmap.Cut_mapper.labels
        in
        Array.iter
          (fun (name, node) ->
            if not (cut.(node) <= dag.(node) +. 1e-9) then
              Alcotest.failf "seed %d output %s: cut %.3f > dag %.3f" seed name
                cut.(node) dag.(node))
          g.Subject.outputs)
    (List.init 2000 (fun i -> i));
  check tbool "most seeds checked" true (!checked >= 1500)

let test_negative_pi_arrivals () =
  (* Regression: [match_arrival] started its max at 0.0, clamping any
     negative pin arrival — a uniformly negative PI arrival must shift
     every label by exactly that constant (the argmax is unchanged). *)
  let net = Generators.ripple_adder 4 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let shift = -10.0 in
  List.iter
    (fun mode ->
      let base, _, _, _ = Mapper.label mode db g in
      let shifted, _, _, _ =
        Mapper.label ~pi_arrival:(fun _ -> shift) mode db g
      in
      Array.iteri
        (fun n b ->
          check tfloat
            (Printf.sprintf "%s node %d shifts uniformly"
               (Mapper.mode_name mode) n)
            (b +. shift) shifted.(n))
        base)
    modes

(* QCheck: random circuits, random library subsets stay equivalent. *)
let qc_mapping_equivalence =
  QCheck.Test.make ~count:20 ~name:"random circuit mapping equivalence"
    QCheck.(make Gen.(pair (int_bound 10_000) (int_bound 2)))
    (fun (seed, mode_idx) ->
      let net = Generators.random_dag ~seed ~inputs:7 ~outputs:4 ~nodes:50 () in
      let g = Subject.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      let mode = List.nth modes mode_idx in
      let r = Mapper.map mode db g in
      let verdict =
        Equiv.compare_sims ~rounds:4
          ~n_inputs:(List.length (Subject.pi_ids g))
          (Simulate.subject g)
          (Simulate.netlist r.Mapper.netlist)
      in
      Equiv.is_equivalent verdict)

let () =
  Alcotest.run "mapper"
    [ ( "structural",
        [ Alcotest.test_case "netlists validate" `Quick test_netlist_validates;
          Alcotest.test_case "labels = delay" `Quick test_labels_equal_netlist_delay;
          Alcotest.test_case "tree no duplication" `Quick test_tree_no_duplication;
          Alcotest.test_case "minimal identity cover" `Quick
            test_minimal_library_is_identity_cover ] );
      ( "optimality",
        [ Alcotest.test_case "dag dominates tree" `Quick test_dag_dominates_tree;
          Alcotest.test_case "label bounds" `Quick test_labels_monotone_bound;
          Alcotest.test_case "rich library helps" `Quick
            test_rich_library_beats_simple;
          Alcotest.test_case "exhaustive covers" `Slow
            test_optimality_vs_exhaustive;
          Alcotest.test_case "cut engine reaches the optimum" `Quick
            test_cut_engine_reaches_optimum ] );
      ( "edge cases",
        [ Alcotest.test_case "unmappable" `Quick test_unmappable_raises;
          Alcotest.test_case "const and pi outputs" `Quick
            test_constant_and_pi_outputs;
          Alcotest.test_case "stats" `Quick test_stats_populated;
          Alcotest.test_case "negative PI arrivals" `Quick
            test_negative_pi_arrivals ] );
      ( "equivalence",
        [ Alcotest.test_case "fixed circuits" `Slow test_equivalence;
          QCheck_alcotest.to_alcotest qc_mapping_equivalence ] ) ]
