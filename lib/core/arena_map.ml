open Dagmap_genlib
open Dagmap_obs

(* Every function here is a line-for-line port of its legacy
   counterpart (matcher.ml / matchdb.ml / mapper.ml) with boxed kind
   inspection replaced by reads of the arena fanin vectors. Order of
   enumeration, tie-breaking and cache replay semantics are part of
   the contract: the differential suite requires bit-identical labels,
   best matches and covers. Keep the two sides in lockstep. *)

type labels = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let aget = Bigarray.Array1.unsafe_get

(* ------------------------------------------------------------------ *)
(* Matcher (port of Matcher.for_each_match)                            *)
(* ------------------------------------------------------------------ *)

let for_each_match cls a ~fanouts p root f =
  let nodes = p.Pattern.nodes in
  let binding = Array.make (Array.length nodes) (-1) in
  let injective =
    match cls with
    | Matcher.Standard | Matcher.Exact -> true
    | Matcher.Extended -> false
  in
  let f0 = a.Arena.fanin0 and f1 = a.Arena.fanin1 in
  let rec go pid sid k =
    let b = binding.(pid) in
    if b >= 0 then begin
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
          let x = aget f0 sid in
          if x >= 0 && aget f1 sid < 0 then begin
            binding.(pid) <- sid;
            go c x k;
            binding.(pid) <- -1
          end
        | Pattern.Pnand (pa, pb) ->
          let x = aget f0 sid in
          if x >= 0 then begin
            let y = aget f1 sid in
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

(* ------------------------------------------------------------------ *)
(* Enumeration (port of Matchdb.enumerate over the shared shape index) *)
(* ------------------------------------------------------------------ *)

let enumerate db cls a ~fanouts ~levels node f =
  Matchdb.for_each_candidate db ~fanin0:(Arena.fanin0 a)
    ~fanin1:(Arena.fanin1 a) ~level:levels.(node) node (fun p ->
      for_each_match cls a ~fanouts p node f)

(* ------------------------------------------------------------------ *)
(* Canonical-signature match cache (port of Matchdb's)                 *)
(* ------------------------------------------------------------------ *)

type centry = {
  c_pattern : Pattern.t;
  c_pins : int array;
  c_covered : int array;
}

type cache = {
  table : (string, centry list) Hashtbl.t;
  (* A cache is owned by exactly one domain (the sequential labeler
     holds one; the parallel labeler gives each worker its own), so
     plain ints suffice locally; each bump is mirrored into the
     process-global atomic registry counters shared with the legacy
     caches. *)
  mutable hits : int;
  mutable misses : int;
  mutable lookups : int;
  mutable disabled : bool;
  mutable cone : int array;
  mutable cone_len : int;
  local_of : (int, int) Hashtbl.t;
  buf : Buffer.t;
}

let global_hits = Metrics.counter "matchdb.cache.hits"
let global_misses = Metrics.counter "matchdb.cache.misses"
let global_lookups = Metrics.counter "matchdb.cache.lookups"

let create_cache () =
  { table = Hashtbl.create 1024;
    hits = 0;
    misses = 0;
    lookups = 0;
    disabled = false;
    cone = Array.make 64 0;
    cone_len = 0;
    local_of = Hashtbl.create 64;
    buf = Buffer.create 256 }

let cache_hits c = c.hits
let cache_misses c = c.misses
let cache_lookups c = c.lookups

let count_hit c =
  c.hits <- c.hits + 1;
  Metrics.Counter.incr global_hits

let count_miss c =
  c.misses <- c.misses + 1;
  Metrics.Counter.incr global_misses

let count_lookup c =
  c.lookups <- c.lookups + 1;
  Metrics.Counter.incr global_lookups

(* Same tuning as Matchdb: cone budget, probation length and the
   <25 % self-retirement threshold. *)
let cone_budget = 512
let probation = 2048
let min_hit_shift = 2

let maybe_retire c =
  if c.lookups >= probation && c.hits < c.lookups asr min_hit_shift then begin
    c.disabled <- true;
    Hashtbl.reset c.table
  end

let push_cone c sid =
  let id = c.cone_len in
  if id = Array.length c.cone then begin
    let grown = Array.make (2 * id) 0 in
    Array.blit c.cone 0 grown 0 id;
    c.cone <- grown
  end;
  c.cone.(id) <- sid;
  c.cone_len <- id + 1;
  Hashtbl.replace c.local_of sid id;
  id

let add_id buf i = Buffer.add_int16_ne buf i

let cone_key c db cls a ~fanouts ~levels node =
  c.cone_len <- 0;
  Hashtbl.reset c.local_of;
  let buf = c.buf in
  Buffer.clear buf;
  Buffer.add_char buf
    (match cls with
     | Matcher.Standard -> 's'
     | Matcher.Exact -> 'e'
     | Matcher.Extended -> 'x');
  let max_depth = Matchdb.max_depth db in
  Buffer.add_int8 buf (min levels.(node) max_depth);
  let exact = cls = Matcher.Exact in
  let q = Queue.create () in
  ignore (push_cone c node);
  Queue.add (node, 0) q;
  let ok = ref true in
  while !ok && not (Queue.is_empty q) do
    let sid, d = Queue.pop q in
    if c.cone_len > cone_budget then ok := false
    else begin
      let child x =
        match Hashtbl.find_opt c.local_of x with
        | Some l -> l
        | None ->
          let l = push_cone c x in
          Queue.add (x, d + 1) q;
          l
      in
      (if d >= max_depth then Buffer.add_char buf 'f'
       else
         let x = aget a.Arena.fanin0 sid in
         if x < 0 then Buffer.add_char buf 'p'
         else
           let y = aget a.Arena.fanin1 sid in
           if y < 0 then begin
             Buffer.add_char buf 'i';
             add_id buf (child x)
           end
           else begin
             Buffer.add_char buf 'n';
             let lx = child x in
             let ly = child y in
             add_id buf lx;
             add_id buf ly
           end);
      if exact && d > 0 && d < max_depth then
        Buffer.add_int8 buf (min fanouts.(sid) 255)
    end
  done;
  if !ok then Some (Buffer.contents buf) else None

let translate c (e : centry) =
  let pins =
    Array.map (fun l -> if l >= 0 then c.cone.(l) else -1) e.c_pins
  in
  let covered = Array.map (fun l -> c.cone.(l)) e.c_covered in
  Array.sort compare covered;
  { Matcher.pattern = e.c_pattern; pins; covered }

let intern c (m : Matcher.mtch) =
  { c_pattern = m.Matcher.pattern;
    c_pins =
      Array.map
        (fun s -> if s >= 0 then Hashtbl.find c.local_of s else -1)
        m.Matcher.pins;
    c_covered =
      Array.map (fun s -> Hashtbl.find c.local_of s) m.Matcher.covered }

let for_each_node_match ?cache db cls a ~fanouts ~levels node f =
  match cache with
  | None -> enumerate db cls a ~fanouts ~levels node f
  | Some c when c.disabled || aget a.Arena.fanin0 node < 0 ->
    enumerate db cls a ~fanouts ~levels node f
  | Some c -> begin
    count_lookup c;
    match cone_key c db cls a ~fanouts ~levels node with
    | None ->
      count_miss c;
      maybe_retire c;
      enumerate db cls a ~fanouts ~levels node f
    | Some key -> begin
      match Hashtbl.find_opt c.table key with
      | Some entries ->
        count_hit c;
        List.iter (fun e -> f (translate c e)) entries;
        0
      | None ->
        count_miss c;
        maybe_retire c;
        let acc = ref [] in
        let tried =
          enumerate db cls a ~fanouts ~levels node (fun m ->
              acc := intern c m :: !acc;
              f m)
        in
        if not c.disabled then Hashtbl.replace c.table key (List.rev !acc);
        tried
    end
  end

(* ------------------------------------------------------------------ *)
(* Labeling DP (port of Mapper.label / label_node)                     *)
(* ------------------------------------------------------------------ *)

let match_arrival (labels : labels) (m : Matcher.mtch) =
  let g = Matcher.gate m in
  let worst = ref neg_infinity in
  Array.iteri
    (fun pin node ->
      if node >= 0 then
        worst :=
          Float.max !worst
            (aget labels node +. Gate.intrinsic_delay g pin
            +. !Mapper.test_pin_delay_skew))
    m.Matcher.pins;
  if !worst = neg_infinity then 0.0 else !worst

let better arrival area pins (best_arrival, best_area, best_pins) =
  arrival < best_arrival -. 1e-12
  || (arrival < best_arrival +. 1e-12
      && (area < best_area -. 1e-9
          || (area < best_area +. 1e-9 && pins < best_pins)))

let label_node ?cache cls db a ~fanouts ~levels ~labels ~best node =
  let tried = ref 0 in
  let super_tried = ref 0 in
  let best_cost = ref (infinity, infinity, max_int) in
  let patterns =
    for_each_node_match ?cache db cls a ~fanouts ~levels node (fun m ->
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
     Bigarray.Array1.unsafe_set labels node arrival
   | None ->
     raise
       (Mapper.Unmappable
          { node;
            description =
              Printf.sprintf "no %s match for subject node %d"
                (Matcher.class_name cls) node }));
  (!tried, !super_tried, patterns)

let label ?(pi_arrival = fun _ -> 0.0) ?cache mode db a =
  let cls = Mapper.mode_class mode in
  let n = Arena.num_nodes a in
  let fanouts = Arena.fanout_counts a in
  let levels = Arena.levels a in
  let labels =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  in
  let best : Matcher.mtch option array = Array.make n None in
  let tried = ref 0 in
  let super_tried = ref 0 in
  let patterns = ref 0 in
  for node = 0 to n - 1 do
    if aget a.Arena.fanin0 node < 0 then
      Bigarray.Array1.unsafe_set labels node (pi_arrival node)
    else begin
      let t, st, pt =
        label_node ?cache cls db a ~fanouts ~levels ~labels ~best node
      in
      tried := !tried + t;
      super_tried := !super_tried + st;
      patterns := !patterns + pt
    end
  done;
  (labels, best, (!tried, !super_tried, !patterns))

(* ------------------------------------------------------------------ *)
(* Cover construction (port of Mapper.cover)                           *)
(* ------------------------------------------------------------------ *)

let cover a ~subject (best : Matcher.mtch option array) =
  let needed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let require node =
    if aget a.Arena.fanin0 node >= 0 && not (Hashtbl.mem needed node)
    then begin
      Hashtbl.add needed node ();
      Queue.add node queue
    end
  in
  Array.iter (fun (_, node) -> require node) a.Arena.outputs;
  let chosen = ref [] in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    match best.(node) with
    | None -> assert false
    | Some m ->
      chosen := (node, m) :: !chosen;
      Array.iter
        (fun pin_node -> if pin_node >= 0 then require pin_node)
        m.Matcher.pins
  done;
  let index = Hashtbl.create 64 in
  List.iteri (fun i (node, _) -> Hashtbl.replace index node i) !chosen;
  let driver_of node =
    if aget a.Arena.fanin0 node < 0 then Netlist.D_pi node
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
                 else Netlist.D_const false)
               m.Matcher.pins
           in
           { Netlist.inst_id = i; gate; inputs; subject_root = node;
             covers = m.Matcher.covered })
         !chosen)
  in
  let outputs =
    List.map (fun (name, node) -> (name, driver_of node))
      (Array.to_list a.Arena.outputs)
    @ List.map (fun (name, b) -> (name, Netlist.D_const b)) a.Arena.const_outputs
  in
  { Netlist.source = subject; instances; outputs }

(* ------------------------------------------------------------------ *)
(* End-to-end (port of Mapper.map)                                     *)
(* ------------------------------------------------------------------ *)

let map ?(cache = true) ?subject mode db a =
  let subject =
    match subject with Some s -> s | None -> Arena.to_subject a
  in
  let cache = if cache then Some (create_cache ()) else None in
  let t0 = Clock.now () in
  let labels, best, (tried, super_tried, patterns_tried) =
    Span.with_span ~cat:"mapper" "label" (fun () -> label ?cache mode db a)
  in
  let t1 = Clock.now () in
  let netlist =
    Span.with_span ~cat:"mapper" "cover" (fun () -> cover a ~subject best)
  in
  let t2 = Clock.now () in
  Metrics.Histogram.observe (Metrics.histogram "mapper.label_seconds") (t1 -. t0);
  Metrics.Histogram.observe (Metrics.histogram "mapper.cover_seconds") (t2 -. t1);
  Metrics.Counter.incr (Metrics.counter "mapper.maps");
  Metrics.Counter.add (Metrics.counter "mapper.matches_tried") tried;
  let ch, cm, cl =
    match cache with
    | None -> (0, 0, 0)
    | Some c -> (c.hits, c.misses, c.lookups)
  in
  let labels_arr = Array.init (Bigarray.Array1.dim labels) (aget labels) in
  { Mapper.netlist;
    labels = labels_arr;
    best;
    run =
      { Mapper.label_seconds = t1 -. t0; cover_seconds = t2 -. t1;
        matches_tried = tried; super_matches_tried = super_tried;
        patterns_tried;
        cache_hits = ch; cache_misses = cm; cache_lookups = cl;
        super_gates_used = Mapper.super_gates_in netlist } }
