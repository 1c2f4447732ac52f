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
  cache_misses : int;
  cache_lookups : int;
  super_gates_used : int;
}

type result = {
  netlist : Netlist.t;
  labels : float array;
  best : Matcher.mtch option array;
  run : stats;
}

(* Fault-injection hook for the check layer: added to every pin delay
   the labeling pass sees, so predictions drift from the netlist's
   STA and the delay audit must fire. 0.0 outside those tests. *)
let test_pin_delay_skew = ref 0.0

(* Arrival time a match would realize given the labels of its pin
   nodes: max over used pins of label + intrinsic pin delay. A match
   using no pins at all (a constant gate) is available at time 0.
   Starting from neg_infinity rather than 0 keeps negative labels
   meaningful — with latch-injected [pi_arrival] values a pin arriving
   before 0 must not be clamped. *)
let match_arrival labels (m : Matcher.mtch) =
  let g = Matcher.gate m in
  let worst = ref neg_infinity in
  Array.iteri
    (fun pin node ->
      if node >= 0 then
        worst :=
          Float.max !worst
            (labels.(node) +. Gate.intrinsic_delay g pin
            +. !test_pin_delay_skew))
    m.Matcher.pins;
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
   what lets Parmap run a whole topological level of these calls
   concurrently. Returns the numbers of matches considered and of
   patterns tried. *)
let label_node ?cache cls db g ~fanouts ~levels ~labels ~best node =
  let tried = ref 0 in
  let super_tried = ref 0 in
  let best_cost = ref (infinity, infinity, max_int) in
  let patterns =
    Matchdb.for_each_node_match ?cache db cls g ~fanouts ~levels node
      (fun m ->
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

let label ?(pi_arrival = fun _ -> 0.0) ?cache mode db g =
  let cls = mode_class mode in
  let n = Subject.num_nodes g in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let labels = Array.make n 0.0 in
  let best : Matcher.mtch option array = Array.make n None in
  let tried = ref 0 in
  let super_tried = ref 0 in
  let patterns = ref 0 in
  for node = 0 to n - 1 do
    match Subject.kind g node with
    | Spi -> labels.(node) <- pi_arrival node
    | Snand _ | Sinv _ ->
      let t, st, pt =
        label_node ?cache cls db g ~fanouts ~levels ~labels ~best node
      in
      tried := !tried + t;
      super_tried := !super_tried + st;
      patterns := !patterns + pt
  done;
  (labels, best, (!tried, !super_tried, !patterns))

(* Cover construction (paper §3.3): a queue seeded with the output
   drivers; each popped node contributes one gate instance whose
   inputs are the subject nodes bound to the match pins. Nodes inside
   a match need no instance of their own unless some other match (or
   output) exposes them — that is exactly where DAG covering
   duplicates logic. *)
let cover g (best : Matcher.mtch option array) =
  let needed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let require node =
    match Subject.kind g node with
    | Spi -> ()
    | Snand _ | Sinv _ ->
      if not (Hashtbl.mem needed node) then begin
        Hashtbl.add needed node ();
        Queue.add node queue
      end
  in
  List.iter (fun o -> require o.Subject.out_node) g.Subject.outputs;
  let chosen = ref [] in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    match best.(node) with
    | None -> assert false (* label pass guarantees a match *)
    | Some m ->
      chosen := (node, m) :: !chosen;
      Array.iter (fun pin_node -> if pin_node >= 0 then require pin_node) m.Matcher.pins
  done;
  (* Assign instance indices, then wire (handles forward references
     between instances created in queue order). *)
  let index = Hashtbl.create 64 in
  List.iteri (fun i (node, _) -> Hashtbl.replace index node i) !chosen;
  let driver_of node =
    match Subject.kind g node with
    | Spi -> Netlist.D_pi node
    | Snand _ | Sinv _ -> Netlist.D_gate (Hashtbl.find index node)
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
    List.map (fun o -> (o.Subject.out_name, driver_of o.Subject.out_node)) g.Subject.outputs
    @ List.map (fun (name, b) -> (name, Netlist.D_const b)) g.Subject.const_outputs
  in
  { Netlist.source = g; instances; outputs }

let super_gates_in netlist =
  Array.fold_left
    (fun acc i -> if Gate.is_super i.Netlist.gate then acc + 1 else acc)
    0 netlist.Netlist.instances

(* Phase timings use the monotonic wall clock. They used to be
   [Sys.time] (process CPU), which callers then compared against the
   wall-clock numbers of Parmap and the bench harness — mixing two
   incompatible time bases. [Obs.Clock] is the single source of truth
   now; CPU seconds are still available to callers that want them
   via [Clock.time_wall_cpu]. *)
let map ?(cache = true) mode db g =
  let cache = if cache then Some (Matchdb.create_cache db) else None in
  let t0 = Clock.now () in
  let labels, best, (tried, super_tried, patterns_tried) =
    Span.with_span ~cat:"mapper" "label" (fun () -> label ?cache mode db g)
  in
  let t1 = Clock.now () in
  let netlist = Span.with_span ~cat:"mapper" "cover" (fun () -> cover g best) in
  let t2 = Clock.now () in
  Metrics.Histogram.observe (Metrics.histogram "mapper.label_seconds") (t1 -. t0);
  Metrics.Histogram.observe (Metrics.histogram "mapper.cover_seconds") (t2 -. t1);
  Metrics.Counter.incr (Metrics.counter "mapper.maps");
  Metrics.Counter.add (Metrics.counter "mapper.matches_tried") tried;
  let ch, cm, cl =
    match cache with
    | None -> (0, 0, 0)
    | Some c ->
      (Matchdb.cache_hits c, Matchdb.cache_misses c, Matchdb.cache_lookups c)
  in
  { netlist;
    labels;
    best;
    run =
      { label_seconds = t1 -. t0; cover_seconds = t2 -. t1;
        matches_tried = tried; super_matches_tried = super_tried;
        patterns_tried;
        cache_hits = ch; cache_misses = cm; cache_lookups = cl;
        super_gates_used = super_gates_in netlist } }

let optimal_delay r =
  List.fold_left
    (fun acc o -> Float.max acc r.labels.(o.Subject.out_node))
    0.0 r.netlist.Netlist.source.Subject.outputs

let predicted_arrivals r =
  let g = r.netlist.Netlist.source in
  List.map
    (fun o -> (o.Subject.out_name, r.labels.(o.Subject.out_node)))
    g.Subject.outputs
  @ List.map (fun (name, _) -> (name, 0.0)) g.Subject.const_outputs
