(* Independent references for the mapper tests. The reference matcher
   backtracks over the boxed [Subject.kind] view on every library
   pattern: no shape index, no fanin vectors. The reference labeler is
   the paper's DP in its plainest form on top of it, visiting patterns
   in the library's enumeration order so that it breaks ties as the
   engine does. [check] asserts that [Mapper.label] agrees with it bit
   for bit, for any number of domains. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

(* Patterns that can root a cover (a leaf root is a wire or buffer). *)
let rooting lib =
  List.filter
    (fun p ->
      match p.Pattern.nodes.(p.Pattern.root) with
      | Pattern.Pleaf _ -> false
      | Pattern.Pinv _ | Pattern.Pnand _ -> true)
    lib.Libraries.patterns

(* Enumerate matches by backtracking over the pattern DAG, reading
   the graph through [Subject.kind]. [binding] maps pattern node ->
   subject node (-1 = unbound); standard and exact matches must also
   be injective. Both NAND fanin orders are explored through success
   continuations; bindings are undone on the way out. *)
let for_each_match cls g ~fanouts p root f =
  let nodes = p.Pattern.nodes in
  let binding = Array.make (Array.length nodes) (-1) in
  let injective =
    match cls with
    | Matcher.Standard | Matcher.Exact -> true
    | Matcher.Extended -> false
  in
  let rec go pid sid k =
    let b = binding.(pid) in
    if b >= 0 then begin
      if b = sid then k ()
    end
    else if injective && Matcher.bound binding sid then ()
    else begin
      let fanout_ok =
        match cls, nodes.(pid) with
        | Matcher.Exact, (Pattern.Pinv _ | Pattern.Pnand _) ->
          pid = p.Pattern.root || fanouts.(sid) = p.Pattern.fanout.(pid)
        | (Matcher.Exact | Matcher.Standard | Matcher.Extended), _ -> true
      in
      if fanout_ok then
        match nodes.(pid), Subject.kind g sid with
        | Pattern.Pleaf _, (Subject.Spi | Subject.Snand _ | Subject.Sinv _) ->
          binding.(pid) <- sid;
          k ();
          binding.(pid) <- -1
        | Pattern.Pinv c, Subject.Sinv x ->
          binding.(pid) <- sid;
          go c x k;
          binding.(pid) <- -1
        | Pattern.Pnand (a, b), Subject.Snand (x, y) ->
          binding.(pid) <- sid;
          go a x (fun () -> go b y k);
          if x <> y then go a y (fun () -> go b x k);
          binding.(pid) <- -1
        | (Pattern.Pinv _ | Pattern.Pnand _), _ -> ()
    end
  in
  go p.Pattern.root root (Matcher.emitter p binding f)

let matches cls g ~fanouts p root =
  let acc = ref [] in
  for_each_match cls g ~fanouts p root (fun m -> acc := m :: !acc);
  List.rev !acc

let node_matches patterns cls g ~fanouts node =
  match Subject.kind g node with
  | Subject.Spi -> []
  | Subject.Snand _ | Subject.Sinv _ ->
    List.concat_map (fun p -> matches cls g ~fanouts p node) patterns

let arrival labels (m : Matcher.mtch) =
  let gate = Matcher.gate m in
  let worst = ref neg_infinity in
  Array.iteri
    (fun pin node ->
      if node >= 0 then
        worst := Float.max !worst (labels.(node) +. Gate.intrinsic_delay gate pin))
    m.Matcher.pins;
  if !worst = neg_infinity then 0.0 else !worst

(* Smaller arrival, then smaller area, then fewer pins. *)
let better (a, ar, p) (a', ar', p') =
  a < a' -. 1e-12
  || (a < a' +. 1e-12 && (ar < ar' -. 1e-9 || (ar < ar' +. 1e-9 && p < p')))

let label ?(pi_arrival = fun _ -> 0.0) mode db g =
  let patterns = Matchdb.rooting_patterns db and cls = Mapper.mode_class mode in
  let fanouts = Subject.fanout_counts g in
  let n = Subject.num_nodes g in
  let labels = Array.make n 0.0 and best = Array.make n None in
  for node = 0 to n - 1 do
    if Subject.kind g node = Subject.Spi then labels.(node) <- pi_arrival node
    else begin
      let cost = ref (infinity, infinity, max_int) in
      List.iter
        (fun m ->
          let gate = Matcher.gate m in
          let c = (arrival labels m, gate.Gate.area, Gate.num_pins gate) in
          if better c !cost then begin
            cost := c;
            best.(node) <- Some m
          end)
        (node_matches patterns cls g ~fanouts node);
      let a, _, _ = !cost in
      labels.(node) <- a
    end
  done;
  (labels, best)

let same_match m m' =
  match m, m' with
  | None, None -> true
  | Some m, Some m' ->
    m.Matcher.pattern == m'.Matcher.pattern && m.Matcher.pins = m'.Matcher.pins
  | _ -> false

(* [Mapper.label] against the reference, for each domain count: labels
   bit-identical, the same best match at every node. *)
let check ?pi_arrival ?(jobs = [ 1 ]) ~name mode db g =
  let want, want_best = label ?pi_arrival mode db g in
  List.iter
    (fun j ->
      let where = Printf.sprintf "%s/%s jobs=%d" name (Mapper.mode_name mode) j in
      let got, got_best, _, _ = Mapper.label ~jobs:j ?pi_arrival mode db g in
      Array.iteri
        (fun node l ->
          if got.(node) <> l then
            Alcotest.failf "%s: node %d label %.17g, reference %.17g" where node
              got.(node) l;
          if not (same_match got_best.(node) want_best.(node)) then
            Alcotest.failf "%s: node %d best match differs from the reference"
              where node)
        want)
    jobs

let modes = [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ]

(* [check] over every mode. *)
let check_modes ?jobs ~name lib g =
  let db = Matchdb.prepare lib in
  List.iter (fun mode -> check ?jobs ~name mode db g) modes

let supergates () =
  let base = Libraries.lib44_1_like () in
  let bounds =
    { Dagmap_super.Superenum.default_bounds with max_pins = 4; max_size = 3 }
  in
  let sgl, _ = Dagmap_super.Superlib.make ~bounds base in
  Dagmap_super.Superlib.augment base sgl
