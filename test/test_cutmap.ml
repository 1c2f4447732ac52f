(* Cut enumeration, Boolean matching, and the cut-based mapper. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_sim
open Dagmap_circuits
open Dagmap_cutmap

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let small_graphs () =
  [ ("adder6", Subject.of_network (Generators.ripple_adder 6));
    ("parity8", Subject.of_network (Generators.parity 8));
    ("rand", Subject.of_network
       (Generators.random_dag ~seed:77 ~inputs:8 ~outputs:4 ~nodes:60 ())) ]

(* --- cut enumeration ------------------------------------------------ *)

let test_cut_validity () =
  List.iter
    (fun (name, g) ->
      let cuts = Cuts_oracle.enumerate ~k:4 ~priority:8 g in
      let total = ref 0 in
      Array.iteri
        (fun node node_cuts ->
          List.iter
            (fun c ->
              incr total;
              check tbool
                (Printf.sprintf "%s node %d: cut width" name node)
                true
                (Array.length c.Cuts.leaves <= 4);
              (* Leaves are sorted and distinct. *)
              let l = Array.to_list c.Cuts.leaves in
              check tbool "sorted distinct" true (List.sort_uniq compare l = l);
              if not (Cuts.is_trivial c) then
                check tbool
                  (Printf.sprintf "%s node %d: cut function correct" name node)
                  true (Cuts_oracle.check g node c))
            node_cuts)
        cuts;
      check tbool "enumerated something" true (!total > Subject.num_nodes g))
    (small_graphs ())

let test_trivial_cut_present () =
  let _, g = List.hd (small_graphs ()) in
  let cuts = Cuts_oracle.enumerate g in
  Array.iteri
    (fun node node_cuts ->
      check tbool
        (Printf.sprintf "node %d has its trivial cut" node)
        true
        (List.exists
           (fun c -> c.Cuts.leaves = [| node |] && Cuts.is_trivial c)
           node_cuts))
    cuts

let test_priority_bound () =
  let _, g = List.nth (small_graphs ()) 2 in
  let cuts = Cuts_oracle.enumerate ~k:4 ~priority:3 g in
  Array.iter
    (fun node_cuts ->
      (* priority non-trivial cuts + trivial + possibly the fanin
         fallback. *)
      check tbool "bounded" true (List.length node_cuts <= 5))
    cuts

let test_cut_cone () =
  (* In an inverter chain, the cut at depth d covers d nodes. *)
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let i1 = Subject.Builder.raw_inv b x in
  let i2 = Subject.Builder.raw_inv b i1 in
  let i3 = Subject.Builder.raw_inv b i2 in
  Subject.Builder.output b "o" i3;
  let g = Subject.Builder.finish b in
  let cut = { Cuts.leaves = [| x |]; func = Truth.lognot (Truth.var 1 0); depth = 0 } in
  check tbool "cut checks" true (Cuts_oracle.check g i3 cut);
  let cone =
    Cuts.cut_cone g ~levels:(Subject.levels g) ~folded:(fun _ -> false) i3 cut
  in
  check tint "cone size" 3 (List.length cone)

(* o = NAND(a, NAND(b, INV b)): the inner NAND folds to constant 1, so
   o's best cut shrinks to {a} and o maps to an inverter. That cut no
   longer separates o from b; the cover must still stop at the cut's
   region and never cover the primary input b. *)
let test_shrunk_cut_cover () =
  let b = Subject.Builder.create () in
  let pa = Subject.Builder.pi b "a" in
  let pb = Subject.Builder.pi b "b" in
  let inner = Subject.Builder.nand b pb (Subject.Builder.inv b pb) in
  let o = Subject.Builder.nand b pa inner in
  Subject.Builder.output b "o" o;
  let g = Subject.Builder.finish b in
  let r = Cut_mapper.map (Boolean_match.prepare (Libraries.minimal ())) g in
  let nl = r.Cut_mapper.netlist in
  check tint "one instance" 1 (Netlist.num_gates nl);
  let inst = nl.Netlist.instances.(0) in
  check (Alcotest.list tint) "covers only the root" [ o ]
    (Array.to_list inst.Netlist.covers);
  check tint "structural lint clean" 0
    (List.length (Dagmap_check.Check.structural nl))

(* --- Boolean matching ------------------------------------------------ *)

let test_lookup_nand2 () =
  let db = Boolean_match.prepare (Libraries.lib44_1_like ()) in
  let nand2 = Truth.lognand (Truth.var 2 0) (Truth.var 2 1) in
  let entries = Boolean_match.lookup db nand2 in
  check tbool "nand2 found" true
    (List.exists
       (fun e -> e.Boolean_match.gate.Gate.gate_name = "nand2")
       entries);
  (* 44-1 has no AND gate. *)
  let and2 = Truth.logand (Truth.var 2 0) (Truth.var 2 1) in
  check tint "and2 not found in 44-1" 0
    (List.length (Boolean_match.lookup db and2))

let test_lookup_permutation_wiring () =
  (* An asymmetric gate must be found under both input orders with
     correct wiring. *)
  let mux =
    Gate.make ~name:"mux" ~area:4.0
      ~pins:
        [| Gate.simple_pin ~delay:2.0 "s"; Gate.simple_pin ~delay:1.0 "a";
           Gate.simple_pin ~delay:1.0 "b" |]
      Bexpr.(or2 (and2 (var 0) (var 1)) (and2 (not_ (var 0)) (var 2)))
  in
  let lib = Libraries.make "muxlib" [ mux ] in
  let db = Boolean_match.prepare lib in
  (* Look up the same function with inputs permuted: s at position 2. *)
  let f =
    (* F(x0,x1,x2) = mux with s=x2, a=x0, b=x1 *)
    Truth.logor
      (Truth.logand (Truth.var 3 2) (Truth.var 3 0))
      (Truth.logand (Truth.lognot (Truth.var 3 2)) (Truth.var 3 1))
  in
  match Boolean_match.lookup db f with
  | [ e ] ->
    (* input 2 must connect to pin 0 (s). *)
    check tint "s wiring" 0 e.Boolean_match.pin_of_input.(2);
    check tint "a wiring" 1 e.Boolean_match.pin_of_input.(0);
    check tint "b wiring" 2 e.Boolean_match.pin_of_input.(1)
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_max_arity () =
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  check tint "lib2 max arity" 4 (Boolean_match.max_arity db);
  let db3 = Boolean_match.prepare (Libraries.lib44_3_like ()) in
  check tint "44-3 max matchable arity" 6 (Boolean_match.max_arity db3)

(* --- the mapper ------------------------------------------------------ *)

let libs () = List.filter_map Libraries.by_name [ "minimal"; "44-1"; "lib2" ]

let test_mapper_equivalence () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun lib ->
          let db = Boolean_match.prepare lib in
          let r = Cut_mapper.map db g in
          Netlist.validate r.Cut_mapper.netlist;
          let verdict =
            Equiv.compare_sims ~rounds:6
              ~n_inputs:(List.length (Subject.pi_ids g))
              (Simulate.subject g)
              (Simulate.netlist r.Cut_mapper.netlist)
          in
          if not (Equiv.is_equivalent verdict) then
            Alcotest.failf "%s/%s: %s" name lib.Libraries.lib_name
              (Format.asprintf "%a" Equiv.pp_verdict verdict))
        (libs ()))
    (small_graphs ())

let test_mapper_on_redundant_logic () =
  (* nand(x, inv x) = constant 1: the cut function folds and the node
     becomes a constant driver. *)
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let ix = Subject.Builder.inv b x in
  let const1 = Subject.Builder.nand b x ix in
  Subject.Builder.output b "o" const1;
  let g = Subject.Builder.finish b in
  let db = Boolean_match.prepare (Libraries.minimal ()) in
  let r = Cut_mapper.map db g in
  (match List.assoc "o" r.Cut_mapper.netlist.Netlist.outputs with
   | Netlist.D_const true -> ()
   | _ -> Alcotest.fail "redundant node should fold to constant true");
  (* And it evaluates correctly. *)
  List.iter
    (fun v ->
      check tbool "constant one" true
        (List.assoc "o" (Netlist.eval r.Cut_mapper.netlist [| v |])))
    [ false; true ]

let test_labels_bound_netlist_delay () =
  List.iter
    (fun (name, g) ->
      let db = Boolean_match.prepare (Libraries.lib2_like ()) in
      let r = Cut_mapper.map db g in
      let worst_label =
        Array.fold_left
          (fun acc (_, node) -> Float.max acc r.Cut_mapper.labels.(node))
          0.0 g.Subject.outputs
      in
      check (Alcotest.float 1e-6)
        (Printf.sprintf "%s: delay equals worst label" name)
        worst_label
        (Netlist.delay r.Cut_mapper.netlist))
    (small_graphs ())

let test_quality_converges_to_structural () =
  (* With an ample cut budget on a small-arity library, Boolean
     matching must be at least as good as structural matching (it
     sees every realization the patterns encode, independent of
     decomposition shape). *)
  let g = Subject.of_network (Generators.carry_lookahead_adder 12) in
  List.iter
    (fun lib ->
      let bdb = Boolean_match.prepare lib in
      let pdb = Matchdb.prepare lib in
      let dc = Netlist.delay (Cut_mapper.map ~priority:200 bdb g).Cut_mapper.netlist in
      let dp = Netlist.delay (Mapper.map Mapper.Dag pdb g).Mapper.netlist in
      check tbool
        (Printf.sprintf "%s: cut (%.2f) <= structural (%.2f) + eps"
           lib.Libraries.lib_name dc dp)
        true
        (dc <= dp +. 1e-6))
    [ Libraries.lib44_1_like (); Libraries.lib2_like () ]

let test_matched_nodes_counted () =
  let _, g = List.hd (small_graphs ()) in
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  let r = Cut_mapper.map db g in
  check tbool "matched nodes positive" true (r.Cut_mapper.matched_nodes > 0)

(* --- arrival-time handling ------------------------------------------- *)

let test_negative_pi_arrivals () =
  (* Regression: choice_arrival and the unmatched-cut scorer used to
     fold with [ref 0.0], silently clamping negative leaf labels; and
     [map] hard-coded PI labels to 0.0. A uniform early arrival must
     shift every label through the whole DP. *)
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n = Subject.Builder.nand b x y in
  Subject.Builder.output b "o" n;
  let g = Subject.Builder.finish b in
  let db = Boolean_match.prepare (Libraries.minimal ()) in
  let base = Cut_mapper.map db g in
  let r = Cut_mapper.map ~pi_arrival:(fun _ -> -100.0) db g in
  check (Alcotest.float 1e-9) "shifted by the early arrival"
    (base.Cut_mapper.labels.(n) -. 100.0)
    r.Cut_mapper.labels.(n);
  check tbool "label goes negative, not clamped" true
    (r.Cut_mapper.labels.(n) < 0.0)

let test_pi_arrival_uniform_shift () =
  let _, g = List.hd (small_graphs ()) in
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  let base = Cut_mapper.map db g in
  let shifted = Cut_mapper.map ~pi_arrival:(fun _ -> -2.0) db g in
  Array.iter
    (fun (name, node) ->
      check (Alcotest.float 1e-9) ("output " ^ name)
        (base.Cut_mapper.labels.(node) -. 2.0)
        shifted.Cut_mapper.labels.(node))
    g.Subject.outputs

(* --- fallback retention ---------------------------------------------- *)

let test_retain_fallback_exact () =
  (* A mere subset-of-fanins cut in [kept] (here a single trivial
     fanin cut) must not satisfy the invariant: the exact direct-fanin
     cut is appended from [all]. The old inline check in the mapper
     accepted the subset and dropped the fanin cut. *)
  let all = [ [| 1; 2 |]; [| 1 |]; [| 2 |] ] in
  let kept = [ [| 1 |] ] in
  let r = Cuts.retain_fallback ~fanins:[ 2; 1 ] ~leaves_of:Fun.id ~all kept in
  check tbool "exact fanin cut appended" true (List.mem [| 1; 2 |] r)

let test_retain_fallback_shrunk () =
  (* The exact fanin cut {1,2} shrank out of [all]: its support-shrunk
     descendant (a strict subset of the fanin leaves) is retained
     instead — the path the mapper's old inline fallback missed. *)
  let all = [ [| 3; 4 |]; [| 1 |] ] in
  let kept = [ [| 3; 4 |] ] in
  let r = Cuts.retain_fallback ~fanins:[ 1; 2 ] ~leaves_of:Fun.id ~all kept in
  check tbool "shrunk descendant appended" true (List.mem [| 1 |] r);
  check tint "exactly one appended" (List.length kept + 1) (List.length r)

let test_retain_fallback_present () =
  let all = [ [| 1; 2 |]; [| 1 |] ] in
  let kept = [ [| 1; 2 |] ] in
  check tbool "unchanged when the fanin cut is kept" true
    (Cuts.retain_fallback ~fanins:[ 1; 2 ] ~leaves_of:Fun.id ~all kept == kept)

(* --- index sharing and work accounting ------------------------------- *)

let test_matchdb_boolean_shared () =
  let pdb = Matchdb.prepare (Libraries.lib2_like ()) in
  let b1 = Matchdb.boolean pdb in
  let b2 = Matchdb.boolean pdb in
  check tbool "one Boolean index per prepared library" true (b1 == b2);
  check tbool "usable" true (Boolean_match.num_entries b1 > 0)

let test_matches_evaluated_counted () =
  let _, g = List.hd (small_graphs ()) in
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  let pruned = Cut_mapper.map ~priority:4 db g in
  let full = Cut_mapper.map ~priority:100_000 db g in
  check tbool "evaluations counted" true
    (pruned.Cut_mapper.matches_evaluated > 0);
  check tbool "priority pruning reduces matcher work" true
    (pruned.Cut_mapper.matches_evaluated < full.Cut_mapper.matches_evaluated)

let qc_cut_mapping_equivalence =
  QCheck.Test.make ~count:15 ~name:"random circuit cut-mapping equivalence"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:60 () in
      let g = Subject.of_network net in
      let db = Boolean_match.prepare (Libraries.lib2_like ()) in
      let r = Cut_mapper.map db g in
      Equiv.is_equivalent
        (Equiv.compare_sims ~rounds:3
           ~n_inputs:(List.length (Subject.pi_ids g))
           (Simulate.subject g)
           (Simulate.netlist r.Cut_mapper.netlist)))

let qc_cuts_valid_in_circuit =
  QCheck.Test.make ~count:10 ~name:"random circuit cut functions valid"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:7 ~outputs:3 ~nodes:35 () in
      let g = Subject.of_network net in
      let cuts = Cuts_oracle.enumerate ~k:4 ~priority:6 g in
      let ok = ref true in
      Array.iteri
        (fun node node_cuts ->
          List.iter
            (fun c ->
              if
                (not (Cuts.is_trivial c))
                && not (Cuts_oracle.check ~rounds:4 g node c)
              then ok := false)
            node_cuts)
        cuts;
      !ok)

let () =
  Alcotest.run "cutmap"
    [ ( "cuts",
        [ Alcotest.test_case "validity" `Quick test_cut_validity;
          Alcotest.test_case "trivial present" `Quick test_trivial_cut_present;
          Alcotest.test_case "priority bound" `Quick test_priority_bound;
          Alcotest.test_case "cut cone" `Quick test_cut_cone;
          Alcotest.test_case "shrunk cut cover" `Quick
            test_shrunk_cut_cover ] );
      ( "boolean matching",
        [ Alcotest.test_case "nand2 lookup" `Quick test_lookup_nand2;
          Alcotest.test_case "permutation wiring" `Quick
            test_lookup_permutation_wiring;
          Alcotest.test_case "max arity" `Quick test_max_arity ] );
      ( "mapper",
        [ Alcotest.test_case "equivalence" `Quick test_mapper_equivalence;
          Alcotest.test_case "redundant logic" `Quick
            test_mapper_on_redundant_logic;
          Alcotest.test_case "labels = delay" `Quick
            test_labels_bound_netlist_delay;
          Alcotest.test_case "converges to structural" `Quick
            test_quality_converges_to_structural;
          Alcotest.test_case "matched count" `Quick test_matched_nodes_counted ] );
      ( "arrivals",
        [ Alcotest.test_case "negative PI arrivals" `Quick
            test_negative_pi_arrivals;
          Alcotest.test_case "uniform shift" `Quick
            test_pi_arrival_uniform_shift ] );
      ( "fallback retention",
        [ Alcotest.test_case "exact fanin cut" `Quick test_retain_fallback_exact;
          Alcotest.test_case "shrunk descendant" `Quick
            test_retain_fallback_shrunk;
          Alcotest.test_case "present untouched" `Quick
            test_retain_fallback_present ] );
      ( "index",
        [ Alcotest.test_case "matchdb shares one index" `Quick
            test_matchdb_boolean_shared;
          Alcotest.test_case "matches evaluated" `Quick
            test_matches_evaluated_counted ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qc_cut_mapping_equivalence;
          QCheck_alcotest.to_alcotest qc_cuts_valid_in_circuit ] ) ]
