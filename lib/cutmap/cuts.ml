open Dagmap_logic
open Dagmap_subject
module Arena = Dagmap_core.Arena

type cut = {
  leaves : int array;
  func : Truth.t;
  depth : int;
}

let is_trivial c = Array.length c.leaves = 1 && Truth.equal c.func (Truth.var 1 0)

(* Sorted-array union; None if the union exceeds [k]. *)
let union_leaves k a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then Some (Array.sub out 0 n)
    else if i = la then begin
      out.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
    else if j = lb then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else if a.(i) = b.(j) then begin
      out.(n) <- a.(i);
      go (i + 1) (j + 1) (n + 1)
    end
    else if a.(i) < b.(j) then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else begin
      out.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
  in
  go 0 0 0

(* Position of each element of [sub] within [super] (both sorted). *)
let placement sub super =
  Array.map
    (fun x ->
      let rec find i = if super.(i) = x then i else find (i + 1) in
      find 0)
    sub

(* Shrink a cut to the function's true support. *)
let shrink leaves func depth_of =
  let support = Truth.support func in
  if List.length support = Array.length leaves then
    (leaves, func)
  else begin
    let kept = Array.of_list support in
    let leaves' = Array.map (fun i -> leaves.(i)) kept in
    let func' = Truth.project func kept in
    ignore depth_of;
    (leaves', func')
  end

let cut_depth levels leaves =
  Array.fold_left (fun acc l -> max acc levels.(l)) 0 leaves

(* The fallback-retention invariant, stated once for every consumer
   (the level-synchronous enumerator below and the cut mapper): after
   priority pruning, the kept list must still contain the direct-fanin
   cut — exactly when present, else its support-shrunk descendant
   (redundant nodes can shrink the fanin cut, and a subset-of-fanins
   cut that is {e not} derived from the fanin merge, e.g. a lone
   trivial fanin cut, does not satisfy the invariant). [leaves_of]
   projects a list element to its cut leaves so mappers can retain
   (cut, score) pairs without repackaging. *)
let retain_fallback ~fanins ~leaves_of ~all kept =
  let fanin_leaves = Array.of_list (List.sort_uniq compare fanins) in
  let is_fanin_derived leaves =
    (* the cut obtained from the trivial fanin cuts, possibly shrunk *)
    Array.for_all (fun l -> Array.mem l fanin_leaves) leaves
    && Array.length leaves <= Array.length fanin_leaves
    && (leaves = fanin_leaves || Array.length leaves < Array.length fanin_leaves)
  in
  if List.exists (fun c -> leaves_of c = fanin_leaves) kept then kept
  else
    match List.filter (fun c -> leaves_of c = fanin_leaves) all with
    | [] ->
      (* the fanin cut shrank; keep its shrunk descendant *)
      (match List.filter (fun c -> is_fanin_derived (leaves_of c)) all with
       | [] -> kept
       | shrunk -> kept @ [ List.hd shrunk ])
    | fanin_cuts -> kept @ [ List.hd fanin_cuts ]

(* Priority selection under a caller-supplied rank; the direct-fanin
   cut is always retained as the mapper's fallback. *)
let keep ~priority ~rank ~fanins merged =
  let sorted =
    List.sort (fun a b -> compare (rank a) (rank b)) merged
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  let kept = take priority sorted in
  retain_fallback ~fanins ~leaves_of:(fun c -> c.leaves) ~all:merged kept

let select ~priority ~fanins merged =
  keep ~priority
    ~rank:(fun c -> (float_of_int c.depth, Array.length c.leaves))
    ~fanins merged

let trivial ~levels node =
  { leaves = [| node |]; func = Truth.var 1 0; depth = levels.(node) }

(* Merge the cut lists of the fanins through the node's operator. *)
let merged_generic ~k levels combine fanin_cuts =
  let mk leaves func =
    let leaves, func = shrink leaves func levels in
    { leaves; func; depth = cut_depth levels leaves }
  in
  let results = Hashtbl.create 32 in
  let add c =
    let key = Array.to_list c.leaves in
    if not (Hashtbl.mem results key) then Hashtbl.add results key c
  in
  (match fanin_cuts with
   | [ cx ] ->
     List.iter
       (fun (c : cut) -> add (mk c.leaves (combine [| c.func |])))
       cx
   | [ cx; cy ] ->
     List.iter
       (fun (c1 : cut) ->
         List.iter
           (fun (c2 : cut) ->
             match union_leaves k c1.leaves c2.leaves with
             | None -> ()
             | Some leaves ->
               let w = Array.length leaves in
               let f1 = Truth.expand c1.func w (placement c1.leaves leaves) in
               let f2 = Truth.expand c2.func w (placement c2.leaves leaves) in
               add (mk leaves (combine [| f1; f2 |])))
           cy)
       cx
   | _ -> invalid_arg "Cuts: arity");
  Hashtbl.fold (fun _ c acc -> c :: acc) results []

let merged_for_node ~k ~levels g node stored =
  match Subject.kind g node with
  | Spi -> invalid_arg "Cuts.merged_for_node: PI"
  | Sinv x ->
    merged_generic ~k levels (fun fs -> Truth.lognot fs.(0)) [ stored.(x) ]
  | Snand (x, y) ->
    merged_generic ~k levels
      (fun fs -> Truth.lognand fs.(0) fs.(1))
      [ stored.(x); stored.(y) ]

let enumerate ?(k = 5) ?(priority = 8) g =
  if k < 2 || k > 6 then invalid_arg "Cuts.enumerate: k must be in 2..6";
  let n = Subject.num_nodes g in
  let levels = Subject.levels g in
  let cuts = Array.make n [] in
  for node = 0 to n - 1 do
    match Subject.kind g node with
    | Spi -> cuts.(node) <- [ trivial ~levels node ]
    | Sinv x ->
      let merged = merged_for_node ~k ~levels g node cuts in
      cuts.(node) <-
        select ~priority ~fanins:[ x ] merged @ [ trivial ~levels node ]
    | Snand (x, y) ->
      let merged = merged_for_node ~k ~levels g node cuts in
      cuts.(node) <-
        select ~priority ~fanins:[ x; y ] merged @ [ trivial ~levels node ]
  done;
  cuts

(* The nodes an instance rooted at [node] implements: those on some
   path from a cut leaf up to the root, root included, that passes
   through no constant-folded node. A support-shrunk cut is no longer
   a separator — the input shrinking dropped still feeds the cone —
   so walking down "until a leaf" would run through the dropped
   input's fan-in to the primary inputs. No path from a leaf to the
   root has an interior node at or below the lowest leaf level, which
   bounds the walk; a second pass over the walked nodes in index
   (topological) order keeps those that reach a leaf. *)
let cut_cone a ~levels ~folded node c =
  let is_leaf x = Array.mem x c.leaves in
  let floor = Array.fold_left (fun m l -> min m levels.(l)) max_int c.leaves in
  (* Every walked node is a key of [reach]; true once it is known to
     reach a leaf. *)
  let reach = Hashtbl.create 16 in
  let push x stack =
    if
      x < 0 || is_leaf x || folded x || levels.(x) <= floor
      || Hashtbl.mem reach x
    then stack
    else begin
      Hashtbl.replace reach x false;
      x :: stack
    end
  in
  let rec walk walked = function
    | [] -> walked
    | u :: stack ->
      walk (u :: walked)
        (push (Arena.fanin0 a u) (push (Arena.fanin1 a u) stack))
  in
  Hashtbl.replace reach node false;
  let reaches x = is_leaf x || Hashtbl.find_opt reach x = Some true in
  List.fold_left
    (fun acc u ->
      if u = node || reaches (Arena.fanin0 a u) || reaches (Arena.fanin1 a u)
      then begin
        Hashtbl.replace reach u true;
        u :: acc
      end
      else acc)
    [] (List.sort compare (walk [] [ node ]))

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
      let leaf_values = Array.map (fun l -> bit value.(l)) c.leaves in
      if Truth.eval c.func leaf_values <> bit value.(node) then ok := false
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
