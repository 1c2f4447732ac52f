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
    match Subject.kind g node with
    | Spi -> af.(node) <- 0.0
    | Snand _ | Sinv _ ->
      let best = ref infinity in
      ignore
        (Matchdb.for_each_node_match db cls g ~fanouts ~levels node (fun m ->
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
    List.fold_left
      (fun acc o -> Float.max acc labels.(o.Subject.out_node))
      0.0 g.Subject.outputs
  in
  List.iter
    (fun o ->
      let node = o.Subject.out_node in
      let target = if per_output then labels.(node) else worst in
      budget.(node) <- Float.min budget.(node) target;
      match Subject.kind g node with
      | Spi -> ()
      | Snand _ | Sinv _ -> needed.(node) <- true)
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
        (Matchdb.for_each_node_match db cls g ~fanouts ~levels node (fun m ->
             let gate = Matcher.gate m in
             let arrival = ref 0.0 in
             Array.iteri
               (fun pin pin_node ->
                 if pin_node >= 0 then
                   arrival :=
                     Float.max !arrival
                       (labels.(pin_node) +. Gate.intrinsic_delay gate pin))
               m.Matcher.pins;
             if !arrival <= budget.(node) +. epsilon then begin
               let area = ref gate.Gate.area in
               let counted = ref [] in
               Array.iter
                 (fun pin_node ->
                   if
                     pin_node >= 0
                     && (not needed.(pin_node))
                     && (not (List.mem pin_node !counted))
                     && Subject.kind g pin_node <> Spi
                   then begin
                     counted := pin_node :: !counted;
                     area := !area +. af.(pin_node)
                   end)
                 m.Matcher.pins;
               let cost = (!area, !arrival) in
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
          match result.Mapper.best.(node) with
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
            match Subject.kind g pin_node with
            | Spi -> ()
            | Snand _ | Sinv _ -> needed.(pin_node) <- true
          end)
        m.Matcher.pins
    end
  done;
  (* Assemble the netlist from the chosen matches. *)
  let order = ref [] in
  for node = 0 to n - 1 do
    if needed.(node) then order := node :: !order
  done;
  let index = Hashtbl.create 64 in
  List.iteri (fun i node -> Hashtbl.replace index node i) !order;
  let driver_of node =
    match Subject.kind g node with
    | Spi -> Netlist.D_pi node
    | Snand _ | Sinv _ -> Netlist.D_gate (Hashtbl.find index node)
  in
  let instances =
    Array.of_list
      (List.mapi
         (fun i node ->
           let m = Option.get chosen.(node) in
           let gate = Matcher.gate m in
           let inputs =
             Array.map
               (fun pin_node ->
                 if pin_node >= 0 then driver_of pin_node
                 else Netlist.D_const false)
               m.Matcher.pins
           in
           { Netlist.inst_id = i; gate; inputs; subject_root = node;
             covers = m.Matcher.covered })
         !order)
  in
  let outputs =
    List.map
      (fun o -> (o.Subject.out_name, driver_of o.Subject.out_node))
      g.Subject.outputs
    @ List.map (fun (name, b) -> (name, Netlist.D_const b)) g.Subject.const_outputs
  in
  let recovered = { Netlist.source = g; instances; outputs } in
  (* The area-flow heuristic is not guaranteed to beat the
     delay-optimal cover on every circuit; keep whichever is
     smaller so recovery is never a regression. *)
  if Netlist.area recovered <= Netlist.area result.Mapper.netlist then recovered
  else result.Mapper.netlist
