(* The priority-cut engine: bit-identical results for
   every job count (including store-capacity reruns under full
   enumeration), full lib/check audits over the k x priority x
   library matrix (supergates included), and never-worse-than-tree
   quality. Its cut-side optimality check is in test_mapper. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_cutmap
open Dagmap_check
open Dagmap_super

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let huge_enabled () =
  match Sys.getenv_opt "DAGMAP_HUGE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let small_circuits () =
  [ ("adder6", Subject.of_network (Generators.ripple_adder 6));
    ("cla12", Subject.of_network (Generators.carry_lookahead_adder 12));
    ("rand", Subject.of_network
       (Generators.random_dag ~seed:77 ~inputs:8 ~outputs:4 ~nodes:60 ())) ]

(* Wide enough that jobs=4 actually fans levels across the pool. *)
let wide_circuit () =
  Subject.of_network
    (Generators.random_dag ~seed:5 ~inputs:120 ~outputs:30 ~nodes:3000 ())

let super_lib =
  lazy
    (let base = Libraries.lib44_1_like () in
     let sgl, _ =
       Superlib.make
         ~bounds:{ Superenum.default_bounds with max_pins = 4; max_size = 3 }
         base
     in
     Superlib.augment base sgl)

(* ------------------------------------------------------------------ *)
(* Bit-identity helpers                                                *)
(* ------------------------------------------------------------------ *)

let same_choice c1 c2 =
  match c1, c2 with
  | None, None -> true
  | Some c1, Some c2 ->
    c1.Cut_mapper.cut.Cuts.leaves = c2.Cut_mapper.cut.Cuts.leaves
    && Truth.equal c1.Cut_mapper.cut.Cuts.func c2.Cut_mapper.cut.Cuts.func
    && c1.Cut_mapper.entry.Boolean_match.gate.Gate.gate_name
       = c2.Cut_mapper.entry.Boolean_match.gate.Gate.gate_name
    && c1.Cut_mapper.entry.Boolean_match.pin_of_input
       = c2.Cut_mapper.entry.Boolean_match.pin_of_input
  | _ -> false

let check_same_result name (r1 : Cut_mapper.result) (r2 : Cut_mapper.result) =
  check tbool (name ^ ": labels bit-identical") true
    (r1.Cut_mapper.labels = r2.Cut_mapper.labels);
  check tint (name ^ ": matched nodes") r1.Cut_mapper.matched_nodes
    r2.Cut_mapper.matched_nodes;
  check tint (name ^ ": matches evaluated") r1.Cut_mapper.matches_evaluated
    r2.Cut_mapper.matches_evaluated;
  check tbool (name ^ ": choices identical") true
    (Array.length r1.Cut_mapper.chosen = Array.length r2.Cut_mapper.chosen
    && Array.for_all2 same_choice r1.Cut_mapper.chosen r2.Cut_mapper.chosen);
  check (Alcotest.float 0.0) (name ^ ": delay")
    (Netlist.delay r1.Cut_mapper.netlist)
    (Netlist.delay r2.Cut_mapper.netlist);
  check (Alcotest.float 0.0) (name ^ ": area")
    (Netlist.area r1.Cut_mapper.netlist)
    (Netlist.area r2.Cut_mapper.netlist);
  check tint (name ^ ": gates")
    (Netlist.num_gates r1.Cut_mapper.netlist)
    (Netlist.num_gates r2.Cut_mapper.netlist)

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)
(* ------------------------------------------------------------------ *)

let test_parallel_parity_wide () =
  let g = wide_circuit () in
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  let run jobs = Cut_mapper.map ~jobs ~k:4 ~priority:6 db g in
  let seq = run 1 and par = run 4 in
  let sstats = seq.Cut_mapper.par and pstats = par.Cut_mapper.par in
  (* The wide circuit must actually exercise the work-stealing path,
     otherwise this test proves nothing about parallel determinism. *)
  check tbool "some levels fanned out" true (pstats.Parmap.parallel_levels > 0);
  check tbool "chunks claimed" true (pstats.Parmap.chunks > 0);
  check tint "sequential run stays on caller" 0 sstats.Parmap.parallel_levels;
  check tbool "level timings recorded" true
    (Array.length pstats.Parmap.level_seconds = pstats.Parmap.levels);
  check_same_result "wide seq=par" seq par

(* Full enumeration stores more cuts on some nodes than the store's
   starting capacity (64 slots), so the engine reruns its sweep with
   a larger one. The reruns must not leak into the result: jobs 1 and
   4 agree, and so do two budgets that both keep every cut. *)
let test_capacity_reruns () =
  let g = Subject.of_network (Generators.carry_lookahead_adder 12) in
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  let widest =
    Array.fold_left
      (fun m cuts -> max m (List.length cuts))
      0
      (Cuts_oracle.enumerate ~k:(min 5 (Boolean_match.max_arity db))
         ~priority:max_int g)
  in
  check tbool
    (Printf.sprintf "some node stores %d > 64 cuts" widest)
    true (widest > 64);
  let full jobs priority = Cut_mapper.map ~jobs ~priority db g in
  let seq = full 1 1_000_000 in
  check_same_result "full enumeration seq=par" seq (full 4 1_000_000);
  check_same_result "budget above the widest node" seq (full 1 (widest + 1));
  check_same_result "budget max_int" seq (full 1 max_int);
  check_same_result "negative budget keeps none" (full 1 0) (full 1 (-5))

let test_pi_arrival_parity () =
  let _, g = List.nth (small_circuits ()) 1 in
  let db = Boolean_match.prepare (Libraries.lib2_like ()) in
  let pi_arrival node = if node mod 2 = 0 then -3.0 else 1.5 in
  let run jobs = Cut_mapper.map ~jobs ~priority:8 ~pi_arrival db g in
  let seq = run 1 and par = run 4 in
  check_same_result "pi_arrival seq=par" seq par

(* ------------------------------------------------------------------ *)
(* Audit matrix                                                        *)
(* ------------------------------------------------------------------ *)

let audit_clean tag g (r : Cut_mapper.result) =
  match
    Check.audit ~rounds:4 g
      ~predicted:(Cut_mapper.predicted_arrivals r)
      r.Cut_mapper.netlist
  with
  | [] -> ()
  | issues ->
    Alcotest.failf "%s: %d audit issues, first: %s" tag (List.length issues)
      (Format.asprintf "%a" Check.pp_issue (List.hd issues))

let test_audit_matrix () =
  let libs =
    [ Libraries.minimal (); Libraries.lib2_like (); Libraries.lib44_1_like ();
      Lazy.force super_lib ]
  in
  List.iter
    (fun lib ->
      let db = Boolean_match.prepare lib in
      List.iter
        (fun (name, g) ->
          List.iter
            (fun (k, priority) ->
              let tag =
                Printf.sprintf "%s/%s k=%d p=%d" name lib.Libraries.lib_name k
                  priority
              in
              audit_clean tag g (Cut_mapper.map ~jobs:2 ~k ~priority db g))
            [ (4, 3); (5, 8) ])
        (small_circuits ()))
    libs

let test_supergates_help_or_tie () =
  (* The augmented index contains every base entry, so with an ample
     budget supergates can only improve (or tie) the mapped delay. *)
  let base = Libraries.lib44_1_like () in
  let aug = Lazy.force super_lib in
  let bdb = Boolean_match.prepare base in
  let adb = Boolean_match.prepare aug in
  check tbool "augmented index has supergate entries" true
    (Boolean_match.num_super_entries adb > 0);
  check tint "base index has none" 0 (Boolean_match.num_super_entries bdb);
  List.iter
    (fun (name, g) ->
      let db_d = Netlist.delay (Cut_mapper.map ~priority:200 bdb g).Cut_mapper.netlist in
      let da = Netlist.delay (Cut_mapper.map ~priority:200 adb g).Cut_mapper.netlist in
      check tbool
        (Printf.sprintf "%s: super (%.2f) <= base (%.2f)" name da db_d)
        true
        (da <= db_d +. 1e-6))
    (small_circuits ())

(* ------------------------------------------------------------------ *)
(* Quality: never worse than tree mode                                 *)
(* ------------------------------------------------------------------ *)

let qc_never_worse_than_tree =
  QCheck.Test.make ~count:10 ~name:"cut mapping never worse than tree mode"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:60 () in
      let g = Subject.of_network net in
      let lib = Libraries.lib2_like () in
      let pdb = Matchdb.prepare lib in
      let bdb = Matchdb.boolean pdb in
      (* Unpruned enumeration: Boolean matching sees every realization
         tree matching can pick, so the DP label can only be tighter. *)
      let dc =
        Netlist.delay (Cut_mapper.map ~priority:100_000 bdb g).Cut_mapper.netlist
      in
      let dt = Netlist.delay (Mapper.map Mapper.Tree pdb g).Mapper.netlist in
      dc <= dt +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Huge tier (gated)                                                   *)
(* ------------------------------------------------------------------ *)

let test_million_node_soc () =
  if not (huge_enabled ()) then
    Printf.printf
      "[test_arena_cuts] 1M SoC skipped (set DAGMAP_HUGE=1 to run)\n%!"
  else begin
    let g =
      Subject.of_network (Generators.synthetic_soc ~seed:7 ~nodes:1_000_000 ())
    in
    check tbool "1M+ nodes" true (Subject.num_nodes g >= 1_000_000);
    let db = Boolean_match.prepare (Libraries.lib2_like ()) in
    let run jobs = Cut_mapper.map ~jobs ~k:4 ~priority:8 db g in
    let seq = run 1 and par = run 4 in
    check tbool "1M parallel levels" true
      (par.Cut_mapper.par.Parmap.parallel_levels > 0);
    check_same_result "1M seq=par" seq par;
    audit_clean "1M soc" g par
  end

let () =
  Alcotest.run "arena_cuts"
    [ ( "parity",
        [ Alcotest.test_case "wide parallel" `Quick test_parallel_parity_wide;
          Alcotest.test_case "capacity reruns" `Quick test_capacity_reruns;
          Alcotest.test_case "external arrivals" `Quick test_pi_arrival_parity ] );
      ( "audit",
        [ Alcotest.test_case "mode x k x priority x library" `Quick
            test_audit_matrix;
          Alcotest.test_case "supergates help or tie" `Quick
            test_supergates_help_or_tie ] );
      ( "quality",
        [ QCheck_alcotest.to_alcotest qc_never_worse_than_tree ] );
      ( "huge",
        [ Alcotest.test_case "1M-node SoC (DAGMAP_HUGE)" `Slow
            test_million_node_soc ] ) ]
