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

(* The labeler's winners, flat: each node's winning pattern id and,
   in a slot of [width] ints, the subject node bound to each of its
   gate's pins. Enough to rebuild the match (see [rebuild]). *)
type winners = {
  db : Matchdb.t;
  cls : Matcher.match_class;
  graph : Subject.t;
  fanouts : int array;
  width : int;
  pattern : int array;  (* node -> pattern id; -1 at a PI *)
  pins : int array;     (* node * width + pin -> subject node, -1 unused *)
}

type result = {
  netlist : Netlist.t;
  labels : float array;
  winners : winners;
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

(* The state of one backtracking search, reused from try to try:
   [binding] maps pattern node -> subject node (-1 = unbound); the
   pending goals (pattern node, subject node) form a stack that plays
   the part of the success continuation; [pins] holds the pin binding
   being reported, and [seen] the [n_seen] pin bindings this try has
   already reported. *)
type search = {
  g : Subject.t;
  fanouts : int array;
  cls : Matcher.match_class;
  binding : int array;
  goal_pid : int array;
  goal_sid : int array;
  mutable sp : int;
  pins : int array;
  mutable seen : int array;
  mutable n_seen : int;
}

let make_search cls g ~fanouts ~nodes ~pins =
  let pins = max 1 pins in
  { g; fanouts; cls;
    binding = Array.make nodes (-1);
    (* A pending goal is an unvisited pattern edge, or the root. *)
    goal_pid = Array.make ((2 * nodes) + 1) 0;
    goal_sid = Array.make ((2 * nodes) + 1) 0;
    sp = 0;
    pins = Array.make pins (-1);
    seen = Array.make (4 * pins) 0;
    n_seen = 0 }

let push s pid sid =
  s.goal_pid.(s.sp) <- pid;
  s.goal_sid.(s.sp) <- sid;
  s.sp <- s.sp + 1

(* The report step: read the complete binding into [s.pins] and pass
   it on, unless this try already reported the same pin binding —
   symmetric patterns reach one pin binding through different
   internal assignments. *)
let report s p consume =
  let np = Gate.num_pins p.Pattern.gate in
  let pins = s.pins and pin_of_leaf = p.Pattern.pin_of_leaf in
  Array.fill pins 0 np (-1);
  for i = 0 to Array.length pin_of_leaf - 1 do
    let pin = pin_of_leaf.(i) in
    if pin >= 0 then pins.(pin) <- s.binding.(i)
  done;
  let fresh = ref true and k = ref 0 in
  while !fresh && !k < s.n_seen do
    let base = !k * np and j = ref 0 in
    while !j < np && s.seen.(base + !j) = pins.(!j) do
      incr j
    done;
    if !j = np then fresh := false;
    incr k
  done;
  if !fresh then begin
    if (s.n_seen + 1) * np > Array.length s.seen then begin
      let grown = Array.make (2 * (s.n_seen + 1) * np) 0 in
      Array.blit s.seen 0 grown 0 (s.n_seen * np);
      s.seen <- grown
    end;
    Array.blit pins 0 s.seen (s.n_seen * np) np;
    s.n_seen <- s.n_seen + 1;
    consume ()
  end

(* Backtracking over the pattern DAG. [solve] takes the next pending
   goal and [visit]s it; a visit binds the pattern node, pushes its
   children's goals and solves on, and undoes all of it on the way
   out, so a call leaves [binding] and the goal stack as it found
   them. The first NAND child order is explored before the second,
   and a child's whole subtree before its sibling's: that is the
   enumeration order, which decides ties between equally good
   matches. At a NAND marked in [mask] only the first order is
   tried. *)
let rec solve s p mask consume =
  if s.sp = 0 then report s p consume
  else begin
    let sp = s.sp - 1 in
    let pid = s.goal_pid.(sp) and sid = s.goal_sid.(sp) in
    s.sp <- sp;
    visit s p mask consume pid sid;
    s.goal_pid.(sp) <- pid;
    s.goal_sid.(sp) <- sid;
    s.sp <- sp + 1
  end

and visit s p mask consume pid sid =
  let binding = s.binding and nodes = p.Pattern.nodes in
  let b = binding.(pid) in
  if b >= 0 then begin
    (* Shared pattern node (general DAG pattern): the mapping must be
       a function, so a revisit must agree. *)
    if b = sid then solve s p mask consume
  end
  else if
    (match s.cls with
     | Matcher.Standard | Matcher.Exact -> true
     | Matcher.Extended -> false)
    && Matcher.bound binding (Array.length nodes) sid
  then ()
  else begin
    let fanout_ok =
      match s.cls, nodes.(pid) with
      | Matcher.Exact, (Pattern.Pinv _ | Pattern.Pnand _) ->
        pid = p.Pattern.root || s.fanouts.(sid) = p.Pattern.fanout.(pid)
      | (Matcher.Exact | Matcher.Standard | Matcher.Extended), _ -> true
    in
    if fanout_ok then
      match nodes.(pid) with
      | Pattern.Pleaf _ ->
        binding.(pid) <- sid;
        solve s p mask consume;
        binding.(pid) <- -1
      | Pattern.Pinv c ->
        let x = fanin s.g.Subject.fanin0 sid in
        if x >= 0 && fanin s.g.Subject.fanin1 sid < 0 then begin
          binding.(pid) <- sid;
          push s c x;
          solve s p mask consume;
          s.sp <- s.sp - 1;
          binding.(pid) <- -1
        end
      | Pattern.Pnand (pa, pb) ->
        let x = fanin s.g.Subject.fanin0 sid in
        if x >= 0 then begin
          let y = fanin s.g.Subject.fanin1 sid in
          if y >= 0 then begin
            binding.(pid) <- sid;
            push s pb y;
            push s pa x;
            solve s p mask consume;
            s.sp <- s.sp - 2;
            if
              x <> y
              && not (pid < Bytes.length mask && Bytes.unsafe_get mask pid <> '\000')
            then begin
              push s pb x;
              push s pa y;
              solve s p mask consume;
              s.sp <- s.sp - 2
            end;
            binding.(pid) <- -1
          end
        end
  end

(* One try: every distinct pin binding of [p] rooted at [root], each
   passed to [consume] (which reads [s.pins] and [s.binding]). *)
let search s p mask root consume =
  s.n_seen <- 0;
  push s p.Pattern.root root;
  solve s p mask consume;
  s.sp <- 0

let to_mtch s p =
  { Matcher.pattern = p;
    pins = Array.sub s.pins 0 (Gate.num_pins p.Pattern.gate);
    covered = Matcher.covered p s.binding }

let for_each_match cls g ~fanouts p root f =
  let s =
    make_search cls g ~fanouts ~nodes:(Array.length p.Pattern.nodes)
      ~pins:(Gate.num_pins p.Pattern.gate)
  in
  search s p Bytes.empty root (fun () -> f (to_mtch s p))

let for_each_node_match db cls g ~fanouts ~levels node f =
  let s =
    make_search cls g ~fanouts ~nodes:(Matchdb.max_nodes db)
      ~pins:(Matchdb.max_pins db)
  in
  Matchdb.for_each_candidate db g ~pruned:false ~level:levels.(node) node
    (fun id ->
      let p = Matchdb.pattern db id in
      search s p Bytes.empty node (fun () -> f (to_mtch s p)))

(* ------------------------------------------------------------------ *)
(* Labeling DP                                                         *)
(* ------------------------------------------------------------------ *)

(* Arrival time a gate realizes given the labels of its pin nodes:
   max over used pins of label + intrinsic pin delay + [skew]. A gate
   using no pins at all (a constant gate) is available at time 0.
   Starting from neg_infinity rather than 0 keeps negative labels
   meaningful — with latch-injected [pi_arrival] values a pin arriving
   before 0 must not be clamped. *)
let arrival ~skew (labels : float array) gate (pins : int array) =
  let worst = ref neg_infinity in
  for pin = 0 to Gate.num_pins gate - 1 do
    let node = pins.(pin) in
    if node >= 0 then
      worst :=
        Float.max !worst (labels.(node) +. Gate.intrinsic_delay gate pin +. skew)
  done;
  if !worst = neg_infinity then 0.0 else !worst

(* Strictly-better comparison: smaller arrival, then smaller area,
   then fewer gate pins (cheapest equivalent). *)
let better arrival area pins best_arrival best_area best_pins =
  arrival < best_arrival -. 1e-12
  || (arrival < best_arrival +. 1e-12
      && (area < best_area -. 1e-9
          || (area < best_area +. 1e-9 && pins < best_pins)))

(* One sweep worker's labeling state: its own search and the node in
   hand. [cost] holds the best arrival and area so far. Workers share
   nothing but the read-only inputs and disjoint slots of the
   store. *)
type worker = {
  search : search;
  cost : float array;
  mutable cost_pins : int;
  mutable node : int;
  mutable id : int;       (* the pattern being tried *)
  mutable tried : int;
  mutable super_tried : int;
  mutable patterns_tried : int;
}

(* The DP kernel: compute one gate node's optimal label and winner.
   Reads only labels of fanin-cone nodes (strictly smaller levels),
   writes only [labels.(node)] and the node's slots of [st] — which is
   what lets a whole topological level of these calls run
   concurrently. Each binding is scored where it stands: its pins go
   to the store only when it is the best so far. *)
let label_node (st : winners) ~levels ~labels ~try_pattern wk node =
  wk.node <- node;
  wk.cost.(0) <- infinity;
  wk.cost.(1) <- infinity;
  wk.cost_pins <- max_int;
  st.pattern.(node) <- -1;
  wk.patterns_tried <-
    wk.patterns_tried
    + Matchdb.for_each_candidate st.db st.graph ~pruned:true
        ~level:levels.(node) node try_pattern;
  if st.pattern.(node) < 0 then
    raise
      (Unmappable
         { node;
           description =
             Printf.sprintf "no %s match for subject node %d"
               (Matcher.class_name st.cls) node });
  labels.(node) <- wk.cost.(0)

let score (st : winners) labels wk () =
  let s = wk.search in
  let gate = (Matchdb.pattern st.db wk.id).Pattern.gate in
  wk.tried <- wk.tried + 1;
  if Gate.is_super gate then wk.super_tried <- wk.super_tried + 1;
  let arrival = arrival ~skew:!test_pin_delay_skew labels gate s.pins in
  let area = gate.Gate.area and np = Gate.num_pins gate in
  if better arrival area np wk.cost.(0) wk.cost.(1) wk.cost_pins then begin
    wk.cost.(0) <- arrival;
    wk.cost.(1) <- area;
    wk.cost_pins <- np;
    st.pattern.(wk.node) <- wk.id;
    Array.blit s.pins 0 st.pins (wk.node * st.width) np
  end

(* One labeling pass over {!Parmap.sweep}. Scheduling only changes
   who computes a label, never its value: each node is written by
   exactly one worker and the level barrier publishes lower levels
   before anyone reads them, so labels and winners are bit-identical
   for every [jobs]. *)
let label ?(jobs = 1) ?(pi_arrival = fun _ -> 0.0) mode db g =
  let jobs = max 1 jobs in
  let cls = mode_class mode in
  let n = Subject.num_nodes g in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let labels = Array.make n 0.0 in
  let width = Matchdb.max_pins db in
  let st =
    { db; cls; graph = g; fanouts; width;
      pattern = Array.make n (-1);
      pins = Array.make (n * width) (-1) }
  in
  let workers =
    Array.init jobs (fun _ ->
        let wk =
          { search =
              make_search cls g ~fanouts ~nodes:(Matchdb.max_nodes db)
                ~pins:width;
            cost = [| infinity; infinity |]; cost_pins = max_int;
            node = 0; id = 0; tried = 0; super_tried = 0; patterns_tried = 0 }
        in
        let score = score st labels wk in
        let try_pattern id =
          wk.id <- id;
          search wk.search (Matchdb.pattern db id) (Matchdb.symmetric db id)
            wk.node score
        in
        (wk, try_pattern))
  in
  let f0 = g.Subject.fanin0 in
  let par =
    Parmap.sweep ~jobs g (fun worker node ->
        if fanin f0 node < 0 then labels.(node) <- pi_arrival node
        else
          let wk, try_pattern = workers.(worker) in
          label_node st ~levels ~labels ~try_pattern wk node)
  in
  let sum f = Array.fold_left (fun acc (wk, _) -> acc + f wk) 0 workers in
  ( labels,
    st,
    ( sum (fun wk -> wk.tried),
      sum (fun wk -> wk.super_tried),
      sum (fun wk -> wk.patterns_tried) ),
    par )

(* ------------------------------------------------------------------ *)
(* Winners on demand                                                   *)
(* ------------------------------------------------------------------ *)

exception Found of Matcher.mtch

(* The match the labeler chose at [node], rebuilt: re-run the
   winner's pattern at [node] with every child order and take the
   first binding with the stored pins — the binding a full
   enumeration reports for them, so [covered] is the one it gives. *)
let rebuild (st : winners) s node =
  let id = st.pattern.(node) in
  if id < 0 then None
  else begin
    let p = Matchdb.pattern st.db id in
    let np = Gate.num_pins p.Pattern.gate and base = node * st.width in
    let stored () =
      let rec same j =
        j = np || (s.pins.(j) = st.pins.(base + j) && same (j + 1))
      in
      same 0
    in
    let found () = if stored () then raise (Found (to_mtch s p)) in
    match search s p Bytes.empty node found with
    | () -> None
    | exception Found m ->
      Array.fill s.binding 0 (Array.length s.binding) (-1);
      s.sp <- 0;
      Some m
  end

let winner_search (st : winners) =
  make_search st.cls st.graph ~fanouts:st.fanouts
    ~nodes:(Matchdb.max_nodes st.db) ~pins:st.width

let winner st node = rebuild st (winner_search st) node

let best (r : result) node = winner r.winners node

(* ------------------------------------------------------------------ *)
(* Cover construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Cover construction (paper §3.3) through {!Cover}: a FIFO seeded
   with the output drivers; each popped node contributes one gate
   instance whose inputs are the subject nodes bound to its winner's
   pins. Nodes inside a match need no instance of their own unless
   some other match (or output) exposes them — that is exactly where
   DAG covering duplicates logic. Only the instances rebuild their
   match, for [covers]. *)
let cover (st : winners) =
  let s = winner_search st in
  let gate node = (Matchdb.pattern st.db st.pattern.(node)).Pattern.gate in
  let inputs node f =
    let base = node * st.width in
    for pin = 0 to Gate.num_pins (gate node) - 1 do
      let x = st.pins.(base + pin) in
      if x >= 0 then f pin x
    done
  in
  let covers node =
    match rebuild st s node with
    | Some m -> m.Matcher.covered
    | None -> assert false (* label pass guarantees a match *)
  in
  let c = { Cover.gate; inputs; covers; constant = Cover.no_constants } in
  Cover.netlist st.graph c (Cover.walk st.graph c)

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
  let labels, winners, (tried, super_tried, patterns_tried), par =
    Span.with_span ~cat:"mapper" "label" (fun () -> label ?jobs mode db g)
  in
  let t1 = Clock.now () in
  let netlist =
    Span.with_span ~cat:"mapper" "cover" (fun () -> cover winners)
  in
  let t2 = Clock.now () in
  Metrics.Histogram.observe (Metrics.histogram "mapper.label_seconds") (t1 -. t0);
  Metrics.Histogram.observe (Metrics.histogram "mapper.cover_seconds") (t2 -. t1);
  Metrics.Counter.incr (Metrics.counter "mapper.maps");
  Metrics.Counter.add (Metrics.counter "mapper.matches_tried") tried;
  { netlist;
    labels;
    winners;
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
