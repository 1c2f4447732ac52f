open Dagmap_genlib
open Dagmap_subject
open Dagmap_obs

type mode = Tree | Dag | Dag_extended

let mode_name = function
  | Tree -> "tree"
  | Dag -> "dag"
  | Dag_extended -> "dag-extended"

let mode_class = function
  | Tree -> Matcher.Exact
  | Dag -> Matcher.Standard
  | Dag_extended -> Matcher.Extended

exception Unmappable of { node : int; description : string }

type stats = {
  label_seconds : float;
  cover_seconds : float;
  matches_tried : int;
  super_matches_tried : int;
  patterns_tried : int;
  cache_hits : int;
  cache_lookups : int;
  super_gates_used : int;
}

type result = {
  netlist : Netlist.t;
  labels : float array;
  best : Matcher.mtch option array;
  run : stats;
  par : Parmap.par_stats;
}

(* Fault-injection hook for the check layer: added to every pin delay
   the labeling pass sees, so predictions drift from the netlist's
   STA and the delay audit must fire. 0.0 outside those tests. *)
let test_pin_delay_skew = ref 0.0

(* Typed reads: an unannotated [Bigarray.Array1.unsafe_get] stays
   polymorphic and compiles to a bounds-checked C call per read. *)
let fanin (v : Subject.iarr) i = Bigarray.Array1.unsafe_get v i

(* ------------------------------------------------------------------ *)
(* Structural matcher                                                  *)
(* ------------------------------------------------------------------ *)

(* Enumerate matches by backtracking over the pattern DAG. [binding]
   maps pattern node -> subject node (-1 = unbound); standard and
   exact matches must also be injective, which [Matcher.bound]
   checks. The search is driven by success continuations so that both
   NAND fanin orders are explored; bindings are undone on the way
   out. *)
let for_each_match cls g ~fanouts p root f =
  let nodes = p.Pattern.nodes in
  let binding = Array.make (Array.length nodes) (-1) in
  let injective =
    match cls with
    | Matcher.Standard | Matcher.Exact -> true
    | Matcher.Extended -> false
  in
  let f0 = g.Subject.fanin0 and f1 = g.Subject.fanin1 in
  let rec go pid sid k =
    let b = binding.(pid) in
    if b >= 0 then begin
      (* Shared pattern node (general DAG pattern): the mapping must
         be a function, so a revisit must agree. *)
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
        match nodes.(pid) with
        | Pattern.Pleaf _ ->
          binding.(pid) <- sid;
          k ();
          binding.(pid) <- -1
        | Pattern.Pinv c ->
          let x = fanin f0 sid in
          if x >= 0 && fanin f1 sid < 0 then begin
            binding.(pid) <- sid;
            go c x k;
            binding.(pid) <- -1
          end
        | Pattern.Pnand (pa, pb) ->
          let x = fanin f0 sid in
          if x >= 0 then begin
            let y = fanin f1 sid in
            if y >= 0 then begin
              binding.(pid) <- sid;
              go pa x (fun () -> go pb y k);
              if x <> y then go pa y (fun () -> go pb x k);
              binding.(pid) <- -1
            end
          end
    end
  in
  go p.Pattern.root root (Matcher.emitter p binding f)

let for_each_node_match db cls g ~fanouts ~levels node f =
  Matchdb.for_each_candidate db g ~level:levels.(node) node (fun p ->
      for_each_match cls g ~fanouts p node f)

(* ------------------------------------------------------------------ *)
(* Labeling DP                                                         *)
(* ------------------------------------------------------------------ *)

(* Arrival time a match would realize given the labels of its pin
   nodes: max over used pins of label + intrinsic pin delay. A match
   using no pins at all (a constant gate) is available at time 0.
   Starting from neg_infinity rather than 0 keeps negative labels
   meaningful — with latch-injected [pi_arrival] values a pin arriving
   before 0 must not be clamped. *)
let match_arrival (labels : float array) (m : Matcher.mtch) =
  let g = Matcher.gate m in
  let pins = m.Matcher.pins in
  let worst = ref neg_infinity in
  for pin = 0 to Array.length pins - 1 do
    let node = pins.(pin) in
    if node >= 0 then
      worst :=
        Float.max !worst
          (labels.(node) +. Gate.intrinsic_delay g pin +. !test_pin_delay_skew)
  done;
  if !worst = neg_infinity then 0.0 else !worst

(* Strictly-better comparison: smaller arrival, then smaller area,
   then fewer gate pins (cheapest equivalent). *)
let better arrival area pins (best_arrival, best_area, best_pins) =
  arrival < best_arrival -. 1e-12
  || (arrival < best_arrival +. 1e-12
      && (area < best_area -. 1e-9
          || (area < best_area +. 1e-9 && pins < best_pins)))

(* The DP kernel: compute one gate node's optimal label and best
   match. Reads only labels of fanin-cone nodes (strictly smaller
   levels), writes only [labels.(node)] and [best.(node)] — which is
   what lets a whole topological level of these calls run
   concurrently. Returns the numbers of matches considered, of
   supergate matches among them, and of patterns tried. *)
let label_node cls db g ~fanouts ~levels ~labels ~best node =
  let tried = ref 0 in
  let super_tried = ref 0 in
  let best_cost = ref (infinity, infinity, max_int) in
  let patterns =
    for_each_node_match db cls g ~fanouts ~levels node (fun m ->
        incr tried;
        let gate = Matcher.gate m in
        if Gate.is_super gate then incr super_tried;
        let arrival = match_arrival labels m in
        let area = gate.Gate.area in
        let pins = Gate.num_pins gate in
        if better arrival area pins !best_cost then begin
          best_cost := (arrival, area, pins);
          best.(node) <- Some m
        end)
  in
  (match best.(node) with
   | Some _ ->
     let arrival, _, _ = !best_cost in
     labels.(node) <- arrival
   | None ->
     raise
       (Unmappable
          { node;
            description =
              Printf.sprintf "no %s match for subject node %d"
                (Matcher.class_name cls) node }));
  (!tried, !super_tried, patterns)

(* One labeling pass over {!Parmap.sweep}. Scheduling only changes
   who computes a label, never its value: each node is written by
   exactly one worker and the level barrier publishes lower levels
   before anyone reads them, so labels and best matches are
   bit-identical for every [jobs]. *)
let label ?(jobs = 1) ?(pi_arrival = fun _ -> 0.0) mode db g =
  let jobs = max 1 jobs in
  let cls = mode_class mode in
  let n = Subject.num_nodes g in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let labels = Array.make n 0.0 in
  let best : Matcher.mtch option array = Array.make n None in
  (* Per-worker counters; the totals are deterministic (sums over
     nodes of per-node counts) even though the split is not. *)
  let tried = Array.make jobs 0 in
  let super_tried = Array.make jobs 0 in
  let patterns_tried = Array.make jobs 0 in
  let f0 = g.Subject.fanin0 in
  let par =
    Parmap.sweep ~jobs g (fun worker node ->
        if fanin f0 node < 0 then labels.(node) <- pi_arrival node
        else begin
          let t, st, pt =
            label_node cls db g ~fanouts ~levels ~labels ~best node
          in
          tried.(worker) <- tried.(worker) + t;
          super_tried.(worker) <- super_tried.(worker) + st;
          patterns_tried.(worker) <- patterns_tried.(worker) + pt
        end)
  in
  let sum = Array.fold_left ( + ) 0 in
  (labels, best, (sum tried, sum super_tried, sum patterns_tried), par)

(* ------------------------------------------------------------------ *)
(* Cover construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Cover construction (paper §3.3): a queue seeded with the output
   drivers; each popped node contributes one gate instance whose
   inputs are the subject nodes bound to the match pins. Nodes inside
   a match need no instance of their own unless some other match (or
   output) exposes them — that is exactly where DAG covering
   duplicates logic. *)
let cover g (best : Matcher.mtch option array) =
  let f0 = g.Subject.fanin0 in
  let needed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let require node =
    if fanin f0 node >= 0 && not (Hashtbl.mem needed node) then begin
      Hashtbl.add needed node ();
      Queue.add node queue
    end
  in
  Array.iter (fun (_, node) -> require node) g.Subject.outputs;
  let chosen = ref [] in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    match best.(node) with
    | None -> assert false (* label pass guarantees a match *)
    | Some m ->
      chosen := (node, m) :: !chosen;
      Array.iter
        (fun pin_node -> if pin_node >= 0 then require pin_node)
        m.Matcher.pins
  done;
  (* Assign instance indices, then wire (handles forward references
     between instances created in queue order). *)
  let index = Hashtbl.create 64 in
  List.iteri (fun i (node, _) -> Hashtbl.replace index node i) !chosen;
  let driver_of node =
    if fanin f0 node < 0 then Netlist.D_pi node
    else Netlist.D_gate (Hashtbl.find index node)
  in
  let instances =
    Array.of_list
      (List.mapi
         (fun i (node, m) ->
           let gate = Matcher.gate m in
           let inputs =
             Array.map
               (fun pin_node ->
                 if pin_node >= 0 then driver_of pin_node
                 else
                   (* Unused pin: tie to constant false. *)
                   Netlist.D_const false)
               m.Matcher.pins
           in
           { Netlist.inst_id = i; gate; inputs; subject_root = node;
             covers = m.Matcher.covered })
         !chosen)
  in
  let outputs =
    List.map (fun (name, node) -> (name, driver_of node))
      (Array.to_list g.Subject.outputs)
    @ List.map
        (fun (name, b) -> (name, Netlist.D_const b))
        g.Subject.const_outputs
  in
  { Netlist.source = g; instances; outputs }

let super_gates_in netlist =
  Array.fold_left
    (fun acc i -> if Gate.is_super i.Netlist.gate then acc + 1 else acc)
    0 netlist.Netlist.instances

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

(* Phase timings use the monotonic wall clock ([Obs.Clock]), the same
   time base as the bench harness and the per-level timings. *)
let map ?jobs mode db g =
  let t0 = Clock.now () in
  let labels, best, (tried, super_tried, patterns_tried), par =
    Span.with_span ~cat:"mapper" "label" (fun () -> label ?jobs mode db g)
  in
  let t1 = Clock.now () in
  let netlist = Span.with_span ~cat:"mapper" "cover" (fun () -> cover g best) in
  let t2 = Clock.now () in
  Metrics.Histogram.observe (Metrics.histogram "mapper.label_seconds") (t1 -. t0);
  Metrics.Histogram.observe (Metrics.histogram "mapper.cover_seconds") (t2 -. t1);
  Metrics.Counter.incr (Metrics.counter "mapper.maps");
  Metrics.Counter.add (Metrics.counter "mapper.matches_tried") tried;
  { netlist;
    labels;
    best;
    par;
    run =
      { label_seconds = t1 -. t0; cover_seconds = t2 -. t1;
        matches_tried = tried; super_matches_tried = super_tried;
        patterns_tried; cache_hits = 0; cache_lookups = 0;
        super_gates_used = super_gates_in netlist } }

let optimal_delay r =
  Array.fold_left
    (fun acc (_, node) -> Float.max acc r.labels.(node))
    0.0 r.netlist.Netlist.source.Subject.outputs

let predicted_at g labels =
  List.map (fun (name, node) -> (name, labels.(node)))
    (Array.to_list g.Subject.outputs)
  @ List.map (fun (name, _) -> (name, 0.0)) g.Subject.const_outputs

let predicted_arrivals r = predicted_at r.netlist.Netlist.source r.labels
