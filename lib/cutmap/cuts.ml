open Dagmap_logic
open Dagmap_subject

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
   (the cut mapper and the tests' reference enumerator): after
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

(* The nodes an instance rooted at [node] implements: those on some
   path from a cut leaf up to the root, root included, that passes
   through no constant-folded node. A support-shrunk cut is no longer
   a separator — the input shrinking dropped still feeds the cone —
   so walking down "until a leaf" would run through the dropped
   input's fan-in to the primary inputs. No path from a leaf to the
   root has an interior node at or below the lowest leaf level, which
   bounds the walk; a second pass over the walked nodes in index
   (topological) order keeps those that reach a leaf. *)
let cut_cone g ~levels ~folded node c =
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
        (push (Subject.fanin0 g u) (push (Subject.fanin1 g u) stack))
  in
  Hashtbl.replace reach node false;
  let reaches x = is_leaf x || Hashtbl.find_opt reach x = Some true in
  List.fold_left
    (fun acc u ->
      if
        u = node
        || reaches (Subject.fanin0 g u)
        || reaches (Subject.fanin1 g u)
      then begin
        Hashtbl.replace reach u true;
        u :: acc
      end
      else acc)
    [] (List.sort compare (walk [] [ node ]))
