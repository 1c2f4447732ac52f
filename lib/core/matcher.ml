open Dagmap_genlib

type match_class = Standard | Exact | Extended

let class_name = function
  | Standard -> "standard"
  | Exact -> "exact"
  | Extended -> "extended"

type mtch = { pattern : Pattern.t; pins : int array; covered : int array }

let gate m = m.pattern.Pattern.gate

(* Whether subject node [sid] is already the image of one of the
   first [n] pattern nodes. Patterns have a few dozen nodes at most,
   so scanning the binding beats keeping a reverse table per try. *)
let bound (binding : int array) n (sid : int) =
  let i = ref (n - 1) in
  while !i >= 0 && binding.(!i) <> sid do
    decr i
  done;
  !i >= 0

(* The distinct subject nodes bound to the non-leaf nodes of [p],
   ascending. *)
let covered p (binding : int array) =
  let nodes = p.Pattern.nodes in
  let acc = Array.make (Array.length nodes) 0 and n = ref 0 in
  Array.iteri
    (fun i pn ->
      match pn with
      | Pattern.Pleaf _ -> ()
      | Pattern.Pinv _ | Pattern.Pnand _ ->
        acc.(!n) <- binding.(i);
        incr n)
    nodes;
  let acc = Array.sub acc 0 !n in
  Array.sort Int.compare acc;
  (* Drop repeats in place: [k] distinct nodes kept so far. *)
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || x <> acc.(!k - 1) then begin
        acc.(!k) <- x;
        incr k
      end)
    acc;
  Array.sub acc 0 !k
