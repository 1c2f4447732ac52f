(* Reference cut code for the cut tests: a level-synchronous priority
   enumerator and an in-circuit cut check. The cut engine
   ([Cut_mapper.map]) interleaves enumeration with labeling and
   prunes by arrival; this enumerator prunes by (leaf depth, size). *)

open Dagmap_logic
open Dagmap_subject
open Dagmap_cutmap

(* Keep the [priority] best cuts by [rank] (ascending), always
   retaining the direct-fanin cut via [Cuts.retain_fallback]. *)
let keep ~priority ~rank ~fanins merged =
  let sorted = List.sort (fun a b -> compare (rank a) (rank b)) merged in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  let kept = take priority sorted in
  Cuts.retain_fallback ~fanins ~leaves_of:(fun c -> c.Cuts.leaves) ~all:merged
    kept

let select ~priority ~fanins merged =
  keep ~priority
    ~rank:(fun c -> (float_of_int c.Cuts.depth, Array.length c.Cuts.leaves))
    ~fanins merged

(* All (unpruned, deduplicated, support-shrunk) k-feasible cuts of a
   non-PI node, merged from its fanins' stored cut lists. *)
let merged_for_node ~k ~levels g node stored =
  match Subject.kind g node with
  | Subject.Spi -> invalid_arg "Cuts_oracle.merged_for_node: PI"
  | Subject.Sinv x ->
    Cuts.merged_generic ~k levels (fun fs -> Truth.lognot fs.(0)) [ stored.(x) ]
  | Subject.Snand (x, y) ->
    Cuts.merged_generic ~k levels
      (fun fs -> Truth.lognand fs.(0) fs.(1))
      [ stored.(x); stored.(y) ]

(* For every node, its trivial cut plus up to [priority] (default 8)
   non-trivial cuts of at most [k] (default 5) leaves, best-first by
   (leaf depth, size). [k] must be between 2 and 6. *)
let enumerate ?(k = 5) ?(priority = 8) g =
  if k < 2 || k > 6 then invalid_arg "Cuts_oracle.enumerate: k must be in 2..6";
  let n = Subject.num_nodes g in
  let levels = Subject.levels g in
  let cuts = Array.make n [] in
  for node = 0 to n - 1 do
    let trivial = Cuts.trivial ~levels node in
    if Subject.is_pi g node then cuts.(node) <- [ trivial ]
    else begin
      let merged = merged_for_node ~k ~levels g node cuts in
      cuts.(node) <-
        select ~priority ~fanins:(Subject.fanins g node) merged @ [ trivial ]
    end
  done;
  cuts

(* Validate a cut in circuit: over random primary-input vectors
   (default 16 rounds of 64), the node's simulated value always equals
   the cut function applied to the leaves' simulated values. The
   composed function is only guaranteed on feasible leaf valuations —
   leaves can be logically correlated (a signal and its inverse) — and
   mapping correctness only needs those, which is what this checks. *)
let check ?(rounds = 16) g node c =
  let pis = Subject.pi_ids g in
  let n_pi = List.length pis in
  let st = Random.State.make [| 0xc07; node |] in
  let ok = ref true in
  let one_round words =
    (* Word-parallel subject simulation. *)
    let value = Array.make (Subject.num_nodes g) 0L in
    List.iteri (fun i id -> value.(id) <- words.(i)) pis;
    for u = 0 to Subject.num_nodes g - 1 do
      match Subject.kind g u with
      | Subject.Spi -> ()
      | Subject.Sinv x -> value.(u) <- Int64.lognot value.(x)
      | Subject.Snand (x, y) ->
        value.(u) <- Int64.lognot (Int64.logand value.(x) value.(y))
    done;
    for lane = 0 to 63 do
      let bit w = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
      let leaf_values = Array.map (fun l -> bit value.(l)) c.Cuts.leaves in
      if Truth.eval c.Cuts.func leaf_values <> bit value.(node) then ok := false
    done
  in
  one_round (Array.make (max n_pi 1) 0L);
  one_round (Array.make (max n_pi 1) (-1L));
  for _ = 1 to rounds do
    one_round
      (Array.init (max n_pi 1) (fun _ ->
           Int64.logxor
             (Int64.shift_left (Int64.of_int (Random.State.bits st)) 40)
             (Int64.logxor
                (Int64.shift_left (Int64.of_int (Random.State.bits st)) 20)
                (Int64.of_int (Random.State.bits st)))))
  done;
  !ok
