open Dagmap_genlib
open Dagmap_subject

type match_class = Standard | Exact | Extended

let class_name = function
  | Standard -> "standard"
  | Exact -> "exact"
  | Extended -> "extended"

type mtch = { pattern : Pattern.t; pins : int array; covered : int array }

let gate m = m.pattern.Pattern.gate

(* Whether subject node [sid] is already the image of some pattern
   node. Patterns have a few dozen nodes at most, so scanning the
   binding beats keeping a reverse table per try. *)
let bound (binding : int array) (sid : int) =
  let i = ref (Array.length binding - 1) in
  while !i >= 0 && binding.(!i) <> sid do
    decr i
  done;
  !i >= 0

(* The per-try report step: turn the complete [binding] into a match,
   unless a match with the same pin binding was already reported —
   symmetric patterns can reach one pin binding through different
   internal assignments. A try reports a handful of matches at most,
   so the seen set is a list. *)
let emitter p binding f =
  let seen = ref [] in
  fun () ->
    let pins = Array.make (Gate.num_pins p.Pattern.gate) (-1) in
    Array.iteri
      (fun i pin -> if pin >= 0 then pins.(pin) <- binding.(i))
      p.Pattern.pin_of_leaf;
    if not (List.exists (fun q -> q = pins) !seen) then begin
      seen := pins :: !seen;
      let covered = ref [] in
      Array.iteri
        (fun i pn ->
          match pn with
          | Pattern.Pleaf _ -> ()
          | Pattern.Pinv _ | Pattern.Pnand _ -> covered := binding.(i) :: !covered)
        p.Pattern.nodes;
      let covered = Array.of_list (List.sort_uniq compare !covered) in
      f { pattern = p; pins; covered }
    end

(* Enumerate matches by backtracking over the pattern DAG. [binding]
   maps pattern node -> subject node (-1 = unbound); standard and
   exact matches must also be injective, which [bound] checks. The
   search is driven by success continuations so that both NAND fanin
   orders are explored; bindings are undone on the way out. *)
let for_each_match cls g ~fanouts p root f =
  let nodes = p.Pattern.nodes in
  let binding = Array.make (Array.length nodes) (-1) in
  let injective = match cls with Standard | Exact -> true | Extended -> false in
  let rec go pid sid k =
    let b = binding.(pid) in
    if b >= 0 then begin
      (* Shared pattern node (general DAG pattern): the mapping must
         be a function, so a revisit must agree. *)
      if b = sid then k ()
    end
    else if injective && bound binding sid then ()
    else begin
      let fanout_ok =
        match cls, nodes.(pid) with
        | Exact, (Pattern.Pinv _ | Pattern.Pnand _) ->
          pid = p.Pattern.root || fanouts.(sid) = p.Pattern.fanout.(pid)
        | (Exact | Standard | Extended), _ -> true
      in
      if fanout_ok then
        match nodes.(pid), Subject.kind g sid with
        | Pattern.Pleaf _, (Spi | Snand _ | Sinv _) ->
          binding.(pid) <- sid;
          k ();
          binding.(pid) <- -1
        | Pattern.Pinv c, Sinv x ->
          binding.(pid) <- sid;
          go c x k;
          binding.(pid) <- -1
        | Pattern.Pnand (a, b), Snand (x, y) ->
          binding.(pid) <- sid;
          go a x (fun () -> go b y k);
          if x <> y then go a y (fun () -> go b x k);
          binding.(pid) <- -1
        | (Pattern.Pinv _ | Pattern.Pnand _), _ -> ()
    end
  in
  go p.Pattern.root root (emitter p binding f)

let matches cls g ~fanouts p root =
  let acc = ref [] in
  for_each_match cls g ~fanouts p root (fun m -> acc := m :: !acc);
  List.rev !acc

exception Found

let exists_match cls g ~fanouts p root =
  try
    for_each_match cls g ~fanouts p root (fun _ -> raise Found);
    false
  with Found -> true
