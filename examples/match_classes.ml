(* The paper's two figures, executable.

   Figure 1: a pattern that matches as an *extended* match but not as
   a *standard* match (two pattern nodes must fold onto one subject
   node).

   Figure 2: a pattern unusable by tree covering (no *exact* match at
   either output) that DAG covering applies twice, duplicating the
   shared middle cone.

   Run with:  dune exec examples/match_classes.exe *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

let gate_of_expr name ~delay n expr =
  Gate.make ~name ~area:(float_of_int n)
    ~pins:(Array.init n (fun i -> Gate.simple_pin ~delay (Printf.sprintf "p%d" i)))
    expr

let count cls g p root =
  let fanouts = Subject.fanout_counts g in
  let n = ref 0 in
  Mapper.for_each_match cls g ~fanouts p root (fun _ -> incr n);
  !n

let () =
  (* ---------------- Figure 1 ---------------- *)
  Printf.printf "Figure 1: standard vs extended matches\n";
  let bld = Subject.Builder.create () in
  let a = Subject.Builder.pi bld "a" in
  let b = Subject.Builder.pi bld "b" in
  let n = Subject.Builder.nand bld a b in
  let nn = Subject.Builder.raw_nand bld n n in
  let top = Subject.Builder.inv bld nn in
  Subject.Builder.output bld "f" top;
  let g1 = Subject.Builder.finish bld in
  Printf.printf "  subject: top = inv(nand(n, n)), n = nand(a, b)\n";
  let and2 =
    gate_of_expr "and2" ~delay:1.3 2 Bexpr.(and2 (var 0) (var 1))
  in
  let p =
    match Pattern.of_gate ~max_shapes:1 and2 with
    | [ p ] -> p
    | _ -> assert false
  in
  Printf.printf "  pattern: AND2 = inv(nand(m, m'))\n";
  List.iter
    (fun cls ->
      Printf.printf "    %-8s matches at top: %d\n" (Matcher.class_name cls)
        (count cls g1 p top))
    [ Matcher.Standard; Matcher.Exact; Matcher.Extended ];
  Printf.printf
    "  -> the extended match folds m and m' onto the single node n\n\n";

  (* ---------------- Figure 2 ---------------- *)
  Printf.printf "Figure 2: duplication of subject-graph nodes\n";
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
  let g2 = Subject.Builder.finish bld in
  Printf.printf
    "  subject: out1 = nand(a, mid), out2 = nand(mid, d), mid = nand(b, c)\n";
  let big =
    gate_of_expr "big" ~delay:1.2 3
      Bexpr.(not_ (and2 (var 0) (not_ (and2 (var 1) (var 2)))))
  in
  let pbig =
    match Pattern.of_gate ~max_shapes:1 big with [ p ] -> p | _ -> assert false
  in
  Printf.printf "  pattern: big = nand(x, nand(y, z))\n";
  List.iter
    (fun (name, root) ->
      Printf.printf "    at %s: exact=%d standard=%d\n" name
        (count Matcher.Exact g2 pbig root)
        (count Matcher.Standard g2 pbig root))
    [ ("out1", out1); ("out2", out2) ];
  let inv = gate_of_expr "inv" ~delay:0.5 1 Bexpr.(not_ (var 0)) in
  let nand2 =
    gate_of_expr "nand2" ~delay:1.0 2 Bexpr.(not_ (and2 (var 0) (var 1)))
  in
  let lib = Libraries.make "fig2" [ inv; nand2; big ] in
  let db = Matchdb.prepare lib in
  List.iter
    (fun mode ->
      let r = Mapper.map mode db g2 in
      let nl = r.Mapper.netlist in
      Printf.printf
        "  %-5s mapping: delay=%.2f gates=%d duplicated-coverings=%d\n"
        (Mapper.mode_name mode) (Netlist.delay nl) (Netlist.num_gates nl)
        (Netlist.duplication nl))
    [ Mapper.Tree; Mapper.Dag ];
  Printf.printf
    "  -> DAG covering duplicates the cone rooted at mid and uses the big\n\
    \     gate on both outputs; the mapped circuit no longer has an\n\
    \     internal multiple-fanout point (max fanout now at the PIs)\n"
