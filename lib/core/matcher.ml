open Dagmap_genlib

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
