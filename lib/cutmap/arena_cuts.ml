open Dagmap_logic
open Dagmap_obs
open Dagmap_core

(* Flat-arena priority-cut enumeration and labeling.

   The cut store is three preallocated flat buffers indexed by slot
   [node * slot_cap + i] (slot_cap = priority + 2: up to [priority]
   kept cuts, one appended fallback, one trivial cut):

     leaves : int Bigarray, [k] ints per slot (cut leaves, sorted)
     funcs  : int64 Bigarray, one word per slot (Truth.to_bits; cut
              width <= 6 so one word always suffices)
     widths : Bytes, one byte per slot (leaf count, 0 for a cut that
              shrank to a constant)
     counts : cuts stored per node

   A node's slots are written by exactly one worker and read only by
   strictly higher levels (after the level barrier), so the sweep
   parallelizes over the dense {!Arena.level_ranges} slices through
   the same work-stealing protocol as {!Mapper.label}. Each
   node's evaluation is {!Cut_mapper.eval_node} on the reconstructed
   fanin cut lists — a pure function of lower-level state, and
   [Truth.of_bits w (Truth.to_bits f)] is exact — so labels, cut
   sets, choices and netlist are bit-identical to the sequential
   {!Cut_mapper.map} for every job count. *)

let unmappable node =
  Mapper.Unmappable
    { node;
      description =
        Printf.sprintf "no Boolean match for any cut of subject node %d" node }

let map ?(jobs = 1) ?(k = 5) ?(priority = 50) ?(pi_arrival = fun _ -> 0.0)
    ?subject db a =
  let jobs = max 1 jobs in
  (* Same clamp as [Cut_mapper.map]: cuts wider than the widest
     library gate can never match (and the widest gate has <= 6 pins,
     so every stored function fits one truth-table word). *)
  let k = max 2 (min k (Boolean_match.max_arity db)) in
  let n = Arena.num_nodes a in
  let levels = Arena.levels a in
  let order, starts = Arena.level_ranges a in
  let num_levels = Array.length starts - 1 in
  let slot_cap = priority + 2 in
  let leaves =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (max 1 (n * slot_cap * k))
  in
  let funcs =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
      (max 1 (n * slot_cap))
  in
  let widths = Bytes.make (max 1 (n * slot_cap)) '\000' in
  let counts = Array.make (max 1 n) 0 in
  let labels = Array.make (max 1 n) 0.0 in
  let chosen : Cut_mapper.choice option array = Array.make (max 1 n) None in
  let const_node : bool option array = Array.make (max 1 n) None in
  let evaluated = Array.make jobs 0 in
  let matched = Array.make jobs 0 in
  let store_node node cuts =
    let base = node * slot_cap in
    let ct = ref 0 in
    List.iter
      (fun (c : Cuts.cut) ->
        if !ct >= slot_cap then
          invalid_arg "Arena_cuts: cut list exceeds slot capacity";
        let s = base + !ct in
        let w = Array.length c.Cuts.leaves in
        Bytes.unsafe_set widths s (Char.unsafe_chr w);
        Bigarray.Array1.unsafe_set funcs s (Truth.to_bits c.Cuts.func);
        let lbase = s * k in
        for j = 0 to w - 1 do
          Bigarray.Array1.unsafe_set leaves (lbase + j) c.Cuts.leaves.(j)
        done;
        incr ct)
      cuts;
    counts.(node) <- !ct
  in
  (* Rebuild a node's stored cut list in stored order; depths are
     recomputed from [levels] exactly as the boxed enumerator computed
     them, and [Truth.of_bits] restores the normalized table. *)
  let stored_of x =
    let base = x * slot_cap in
    let rec build i acc =
      if i < 0 then acc
      else
        let s = base + i in
        let w = Char.code (Bytes.unsafe_get widths s) in
        let lbase = s * k in
        let lv =
          Array.init w (fun j -> Bigarray.Array1.unsafe_get leaves (lbase + j))
        in
        let func = Truth.of_bits w (Bigarray.Array1.unsafe_get funcs s) in
        let depth = Array.fold_left (fun acc l -> max acc levels.(l)) 0 lv in
        build (i - 1) ({ Cuts.leaves = lv; func; depth } :: acc)
    in
    build (counts.(x) - 1) []
  in
  let label l = labels.(l) in
  let process w node =
    if Arena.is_pi a node then begin
      labels.(node) <- pi_arrival node;
      store_node node [ Cuts.trivial ~levels node ]
    end
    else begin
      let st, verdict, ev =
        Cut_mapper.eval_node ~k ~priority ~levels ~label db (Arena.kind a node)
          ~stored_of node
      in
      store_node node st;
      evaluated.(w) <- evaluated.(w) + ev;
      match verdict with
      | Cut_mapper.Vconst b -> const_node.(node) <- Some b
      | Cut_mapper.Vmatched (arrival, c) ->
        chosen.(node) <- Some c;
        labels.(node) <- arrival;
        matched.(w) <- matched.(w) + 1
      | Cut_mapper.Vnone -> raise (unmappable node)
    end
  in
  let level_seconds = Array.make num_levels 0.0 in
  let parallel_levels = ref 0 in
  let chunks_claimed = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let pool = if jobs > 1 then Some (Parmap.make_pool (jobs - 1)) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Parmap.shutdown_pool pool)
    (fun () ->
      for li = 0 to num_levels - 1 do
        let t0 = Clock.now () in
        let lo = starts.(li) and hi = starts.(li + 1) in
        let len = hi - lo in
        (match pool with
         | Some pool when len >= Parmap.fanout_threshold jobs ->
           incr parallel_levels;
           let cursor = Atomic.make lo in
           let chunk = Parmap.chunk_for ~jobs len in
           Parmap.run_pool pool (fun w ->
               try
                 Parmap.steal_chunks ~cursor ~chunks_claimed ~chunk ~hi
                   (fun i -> process w order.(i))
               with e ->
                 ignore (Atomic.compare_and_set failure None (Some e)));
           (match Atomic.get failure with
            | Some e -> raise e
            | None -> ())
         | _ ->
           for i = lo to hi - 1 do
             process (jobs - 1) order.(i)
           done);
        level_seconds.(li) <- Clock.now () -. t0
      done);
  let widest_level = ref 0 in
  for l = 0 to num_levels - 1 do
    widest_level := max !widest_level (starts.(l + 1) - starts.(l))
  done;
  Metrics.Counter.add (Metrics.counter "arena_cuts.chunks")
    (Atomic.get chunks_claimed);
  Metrics.Counter.add
    (Metrics.counter "arena_cuts.parallel_levels")
    !parallel_levels;
  let stats =
    { Parmap.domains = jobs;
      levels = num_levels;
      widest_level = !widest_level;
      level_seconds;
      parallel_levels = !parallel_levels;
      chunks = Atomic.get chunks_claimed }
  in
  let g =
    match subject with
    | Some g -> g
    | None -> Arena.to_subject a
  in
  let netlist = Cut_mapper.cover g ~chosen ~const_node in
  ( { Cut_mapper.netlist;
      labels;
      chosen;
      matched_nodes = Array.fold_left ( + ) 0 matched;
      matches_evaluated = Array.fold_left ( + ) 0 evaluated },
    stats )
