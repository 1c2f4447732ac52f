open Dagmap_genlib
open Dagmap_subject

let epsilon = 1e-9

(* Area flow (standard mapper heuristic): the estimated area of a
   node's cone when shared fanout amortizes cost,
   af(n) = min over matches (area + sum af(leaf) / fanout(leaf)). *)
let area_flow db cls g ~fanouts ~levels =
  let n = Subject.num_nodes g in
  let af = Array.make n 0.0 in
  for node = 0 to n - 1 do
    if not (Subject.is_pi g node) then begin
      let best = ref infinity in
      ignore
        (Mapper.for_each_node_match db cls g ~fanouts ~levels node (fun m ->
             let gate = Matcher.gate m in
             let cost = ref gate.Gate.area in
             Array.iter
               (fun pin_node ->
                 if pin_node >= 0 then
                   cost :=
                     !cost
                     +. (af.(pin_node)
                        /. float_of_int (max 1 fanouts.(pin_node))))
               m.Matcher.pins;
             if !cost < !best then best := !cost));
      af.(node) <- !best
    end
  done;
  af

let recover ?(per_output = false) db mode g (result : Mapper.result) =
  let cls = Mapper.mode_class mode in
  let labels = result.Mapper.labels in
  let n = Subject.num_nodes g in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let af = area_flow db cls g ~fanouts ~levels in
  let budget = Array.make n infinity in
  let needed = Array.make n false in
  let worst =
    Array.fold_left
      (fun acc (_, node) -> Float.max acc labels.(node))
      0.0 g.Subject.outputs
  in
  Array.iter
    (fun (_, node) ->
      let target = if per_output then labels.(node) else worst in
      budget.(node) <- Float.min budget.(node) target;
      if not (Subject.is_pi g node) then needed.(node) <- true)
    g.Subject.outputs;
  let chosen = Array.make n None in
  (* Reverse topological sweep: all users of a node have higher ids,
     so its budget and neededness are final when visited. The cost of
     a match counts its gate plus the estimated cones of any leaves
     that are not yet needed by someone else (incremental area). *)
  for node = n - 1 downto 0 do
    if needed.(node) then begin
      let best = ref None in
      let best_cost = ref (infinity, infinity) in
      ignore
        (Mapper.for_each_node_match db cls g ~fanouts ~levels node (fun m ->
             let gate = Matcher.gate m in
             let arrival = Mapper.arrival ~skew:0.0 labels gate m.Matcher.pins in
             if arrival <= budget.(node) +. epsilon then begin
               let area = ref gate.Gate.area in
               let counted = ref [] in
               Array.iter
                 (fun pin_node ->
                   if
                     pin_node >= 0
                     && (not needed.(pin_node))
                     && (not (List.mem pin_node !counted))
                     && not (Subject.is_pi g pin_node)
                   then begin
                     counted := pin_node :: !counted;
                     area := !area +. af.(pin_node)
                   end)
                 m.Matcher.pins;
               let cost = (!area, arrival) in
               if cost < !best_cost then begin
                 best_cost := cost;
                 best := Some m
               end
             end));
      let m =
        match !best with
        | Some m -> m
        | None -> begin
          (* Guard against floating-point corner cases: fall back to
             the delay-optimal match. *)
          match Mapper.best result node with
          | Some m -> m
          | None -> assert false
        end
      in
      chosen.(node) <- Some m;
      let gate = Matcher.gate m in
      Array.iteri
        (fun pin pin_node ->
          if pin_node >= 0 then begin
            let slack = budget.(node) -. Gate.intrinsic_delay gate pin in
            budget.(pin_node) <- Float.min budget.(pin_node) slack;
            if not (Subject.is_pi g pin_node) then needed.(pin_node) <- true
          end)
        m.Matcher.pins
    end
  done;
  (* Instances in descending node order, through the shared builder. *)
  let chosen node = Option.get chosen.(node) in
  let order = ref [] in
  for node = 0 to n - 1 do
    if needed.(node) then order := node :: !order
  done;
  let recovered =
    Cover.netlist g
      { Cover.gate = (fun node -> Matcher.gate (chosen node));
        inputs =
          (fun node f ->
            Array.iteri
              (fun pin x -> if x >= 0 then f pin x)
              (chosen node).Matcher.pins);
        covers = (fun node -> (chosen node).Matcher.covered);
        constant = Cover.no_constants }
      (Array.of_list !order)
  in
  (* The area-flow heuristic is not guaranteed to beat the
     delay-optimal cover on every circuit; keep whichever is
     smaller so recovery is never a regression. *)
  if Netlist.area recovered <= Netlist.area result.Mapper.netlist then recovered
  else result.Mapper.netlist
