open Dagmap_genlib
open Dagmap_subject
open Dagmap_obs

(* ------------------------------------------------------------------ *)
(* Shape index                                                         *)
(* ------------------------------------------------------------------ *)

(* A node's [shape] is the unordered NAND/INV/PI tree its fanin cone
   unfolds to over [shape_levels] levels, with the nodes one level
   further down left opaque. [shape_count.(d)] counts the shapes of
   depth [d]: one opaque shape at depth 0, then a PI, an INV over any
   shape of depth [d - 1], or a NAND over an unordered pair of them.
   The codes of depth [d] are dense in [0, shape_count.(d)): 0 is a
   PI, [1 + c] an INV over code [c], and past those the NAND pairs in
   triangular order. Four levels give 2,278 codes; five would give
   ~2.6M. *)
let shape_levels = 4
let shape_count = [| 1; 3; 10; 66; 2278 |]

let rec shape_code ~fanin0 ~fanin1 d node =
  if d = 0 then 0
  else
    let x = fanin0 node in
    if x < 0 then 0
    else
      let cx = shape_code ~fanin0 ~fanin1 (d - 1) x in
      let y = fanin1 node in
      if y < 0 then 1 + cx
      else
        let cy = shape_code ~fanin0 ~fanin1 (d - 1) y in
        let lo = min cx cy and hi = max cx cy in
        1 + shape_count.(d - 1) + (hi * (hi + 1) / 2) + lo

(* What a pattern demands of the shape it roots at: its tree
   unfolding over [shape_levels] levels, with leaves and the nodes
   one level further down as wildcards. NAND children are sorted, as
   [fits] tries both orders anyway; many patterns share a demand, so
   [prepare] dedupes them and a slot fill checks each one once. *)
type demand = Any | Inv of demand | Nand of demand * demand

let rec demand_of p pid d =
  match p.Pattern.nodes.(pid) with
  | Pattern.Pleaf _ -> Any
  | (Pattern.Pinv _ | Pattern.Pnand _) when d = 0 -> Any
  | Pattern.Pinv c -> Inv (demand_of p c (d - 1))
  | Pattern.Pnand (a, b) ->
    let da = demand_of p a (d - 1) and db = demand_of p b (d - 1) in
    if compare da db <= 0 then Nand (da, db) else Nand (db, da)

(* Sharing-blind compatibility of a demand with subject node [node]:
   kinds must agree along every path of the pattern's tree unfolding,
   in either NAND child order. Every match of any class binds pattern
   edges to subject edges of like kinds, so this is necessary for a
   match; it reads only what the shape code records, so it is equal
   on nodes of equal code. *)
let rec fits ~fanin0 ~fanin1 dm node =
  match dm with
  | Any -> true
  | Inv c ->
    let x = fanin0 node in
    x >= 0 && fanin1 node < 0 && fits ~fanin0 ~fanin1 c x
  | Nand (a, b) ->
    let x = fanin0 node and y = fanin1 node in
    x >= 0 && y >= 0
    && ((fits ~fanin0 ~fanin1 a x && fits ~fanin0 ~fanin1 b y)
        || (fits ~fanin0 ~fanin1 a y && fits ~fanin0 ~fanin1 b x))

(* Patterns of one root kind, in enumeration order, each tagged with
   the index of its demand in [demands]. *)
type rooted = {
  patterns : Pattern.t array;
  demand_ix : int array;
  demands : demand array;
}

let rooted patterns =
  let ids = Hashtbl.create 64 and demands = ref [] in
  let demand_ix =
    Array.map
      (fun p ->
        let dm = demand_of p p.Pattern.root shape_levels in
        match Hashtbl.find_opt ids dm with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids dm i;
          demands := dm :: !demands;
          i)
      patterns
  in
  { patterns; demand_ix; demands = Array.of_list (List.rev !demands) }

type t = {
  lib : Libraries.t;
  (* INV- and NAND-rooted patterns in enumeration order. The order is
     the walk of the former top-two-level buckets (see [bucket_rank]);
     it decides ties between equally good matches, so it is part of
     the bit-identity contract. *)
  inv_rooted : rooted;
  nand_rooted : rooted;
  shapes : Pattern.t array option array;
      (* shape code -> the patterns of the matching [*_rooted] that
         fit it, filled on first use (see [candidates]) *)
  max_depth : int;  (* deepest pattern, in edges; bounds every cone *)
  mutable boolean_memo : Boolean_match.t option;
      (* lazily-built Boolean index over the same library (incl. any
         supergates), shared by the cut mappers — see [boolean] *)
}

(* Category of a pattern node seen from its parent: 0 = leaf, 1 = INV,
   2 = NAND. INV roots rank by their child's category; NAND roots by
   the unordered pair of child categories (lo, hi), in the order
   (0,0) (0,1) (0,2) (1,1) (1,2) (2,2). *)
let category p i =
  match p.Pattern.nodes.(i) with
  | Pattern.Pleaf _ -> 0
  | Pattern.Pinv _ -> 1
  | Pattern.Pnand _ -> 2

let bucket_rank p =
  match p.Pattern.nodes.(p.Pattern.root) with
  | Pattern.Pleaf _ -> 0
  | Pattern.Pinv c -> category p c
  | Pattern.Pnand (a, b) ->
    let ca = category p a and cb = category p b in
    let lo = min ca cb and hi = max ca cb in
    (lo * (5 - lo) / 2) + hi

let prepare lib =
  (* Within a rank the order is reverse library order, as the former
     buckets were built by consing. *)
  let ranked =
    List.stable_sort
      (fun p q -> compare (bucket_rank p) (bucket_rank q))
      (List.rev lib.Libraries.patterns)
  in
  let rooted_by f =
    rooted
      (Array.of_list
         (List.filter (fun p -> f p.Pattern.nodes.(p.Pattern.root)) ranked))
  in
  let max_depth =
    List.fold_left
      (fun acc p -> max acc p.Pattern.depth)
      1 lib.Libraries.patterns
  in
  (* Wire/buffer patterns (leaf roots) cannot root a cover. *)
  { lib;
    inv_rooted = rooted_by (function Pattern.Pinv _ -> true | _ -> false);
    nand_rooted = rooted_by (function Pattern.Pnand _ -> true | _ -> false);
    shapes = Array.make shape_count.(shape_levels) None;
    max_depth;
    boolean_memo = None }

let library db = db.lib

(* One Boolean index per prepared library, built on first use: the
   structural and cut mappers then share a single permutation-variant
   table instead of each consumer re-running [Boolean_match.prepare].
   The memo write is a single pointer store; a concurrent race at
   worst builds the index twice with identical contents (same benign
   pattern as [Arena.levels_memo]). *)
let boolean db =
  match db.boolean_memo with
  | Some b -> b
  | None ->
    let b = Boolean_match.prepare db.lib in
    db.boolean_memo <- Some b;
    b

let num_patterns db = List.length db.lib.Libraries.patterns

let max_depth db = db.max_depth

(* A slot is filled the first time its shape is seen, from the node
   in hand; equal codes give equal fills, so the store is the same
   benign race as [boolean_memo]: concurrent labelers at worst compute
   one slot twice. *)
let candidates db ~fanin0 ~fanin1 node =
  if fanin0 node < 0 then [||]
  else
    let code = shape_code ~fanin0 ~fanin1 shape_levels node in
    match db.shapes.(code) with
    | Some ps -> ps
    | None ->
      let r = if fanin1 node < 0 then db.inv_rooted else db.nand_rooted in
      let ok = Array.map (fun dm -> fits ~fanin0 ~fanin1 dm node) r.demands in
      let ps =
        Array.of_list
          (List.filteri
             (fun i _ -> ok.(r.demand_ix.(i)))
             (Array.to_list r.patterns))
      in
      db.shapes.(code) <- Some ps;
      ps

let for_each_candidate db ~fanin0 ~fanin1 ~level node try_pattern =
  let tried = ref 0 in
  Array.iter
    (fun p ->
      if p.Pattern.depth <= level then begin
        incr tried;
        try_pattern p
      end)
    (candidates db ~fanin0 ~fanin1 node);
  !tried

let subject_fanin0 g node =
  match Subject.kind g node with
  | Subject.Spi -> -1
  | Subject.Sinv x | Subject.Snand (x, _) -> x

let subject_fanin1 g node =
  match Subject.kind g node with
  | Subject.Snand (_, y) -> y
  | Subject.Spi | Subject.Sinv _ -> -1

let enumerate db cls g ~fanouts ~levels node f =
  for_each_candidate db ~fanin0:(subject_fanin0 g) ~fanin1:(subject_fanin1 g)
    ~level:levels.(node) node (fun p ->
      Matcher.for_each_match cls g ~fanouts p node f)

(* ------------------------------------------------------------------ *)
(* Canonical-signature match cache                                     *)
(* ------------------------------------------------------------------ *)

(* The labeling pass enumerates matches at every subject node, but
   ISCAS-like circuits are full of repeated local shapes (adder cells,
   compressor rows, decoder slices). Whether a pattern matches at a
   node depends only on the depth-bounded cone under that node — every
   binding made by the matcher lands within [max_depth] edges of the
   root — so isomorphic cones have isomorphic match sets. We key each
   node by a canonical signature of that cone and replay the match set
   through the isomorphism instead of re-running the backtracking
   search. This is the structural analogue of the NPN-canonical cut
   caching used by Boolean matchers: NPN classes would under-split
   (structural matching distinguishes decompositions of the same
   function), so the key is the canonical local DAG itself.

   The signature is built by a breadth-first enumeration from the
   root: local ids are assigned in first-visit order, nodes first seen
   at depth [max_depth] are recorded as opaque frontier leaves (only
   pattern leaves can bind there), and sharing is captured by child
   references to already-assigned local ids. Equal signatures
   therefore guarantee an isomorphism of everything the matcher can
   observe: kinds, sharing/injectivity structure, the root's
   depth-prune level and — for the exact class — fanout counts of
   interior nodes. Matches are stored with pins/covered translated to
   local ids and translated back on a hit, preserving enumeration
   order, so cached and uncached lookups return identical lists. *)

type centry = {
  c_pattern : Pattern.t;
  c_pins : int array;     (* local cone ids; -1 for an unused pin *)
  c_covered : int array;  (* local cone ids *)
}

type cache = {
  table : (string, centry list) Hashtbl.t;
  (* Counters are [Obs.Metrics] atomics: the per-cache totals feed
     Mapper.stats, and every bump is mirrored into the process-global
     registry counters below, which are shared by all caches across
     all Parmap domains. The former [mutable int] fields lost updates
     whenever a cache (or the aggregate) was read or written from
     more than one domain. *)
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  lookups : Metrics.Counter.t;
  mutable disabled : bool;
  (* Scratch state reused across lookups (single-threaded per cache;
     parallel labeling gives each worker domain its own cache). *)
  mutable cone : int array;        (* local id -> subject id *)
  mutable cone_len : int;
  local_of : (int, int) Hashtbl.t; (* subject id -> local id *)
  buf : Buffer.t;
}

(* Process-global aggregates over every cache in every domain. The
   conservation law [lookups = hits + misses] holds on these exactly
   because each counter is atomic — the multi-domain test in
   test_matchcache.ml locks this down. *)
let global_hits = Metrics.counter "matchdb.cache.hits"
let global_misses = Metrics.counter "matchdb.cache.misses"
let global_lookups = Metrics.counter "matchdb.cache.lookups"

let create_cache _db =
  { table = Hashtbl.create 1024;
    hits = Metrics.Counter.create ();
    misses = Metrics.Counter.create ();
    lookups = Metrics.Counter.create ();
    disabled = false;
    cone = Array.make 64 0;
    cone_len = 0;
    local_of = Hashtbl.create 64;
    buf = Buffer.create 256 }

let cache_hits c = Metrics.Counter.value c.hits
let cache_misses c = Metrics.Counter.value c.misses
let cache_lookups c = Metrics.Counter.value c.lookups
let cache_retired c = c.disabled

let count_hit c =
  Metrics.Counter.incr c.hits;
  Metrics.Counter.incr global_hits

let count_miss c =
  Metrics.Counter.incr c.misses;
  Metrics.Counter.incr global_misses

let count_lookup c =
  Metrics.Counter.incr c.lookups;
  Metrics.Counter.incr global_lookups

let reset_counters c =
  Metrics.Counter.reset c.hits;
  Metrics.Counter.reset c.misses;
  Metrics.Counter.reset c.lookups

(* Beyond this cone size the signature itself gets expensive and
   shapes stop repeating; bypass the cache (still deterministic). *)
let cone_budget = 512

(* Caching only pays on circuits with repeated local shapes. On
   shape-diverse subjects (seeded random logic) signature+store
   overhead exceeds the savings, so a cache that keeps missing turns
   itself off: after [probation] lookups, if the hit rate is below
   1/2^[min_hit_shift], further lookups bypass the cache (and
   are not counted — the hits/misses/lookups invariant is preserved
   on whatever was actually looked up). *)
let probation = 2048
let min_hit_shift = 2 (* hits < lookups/2^2, i.e. < 25 % *)

let maybe_retire c =
  if
    cache_lookups c >= probation
    && cache_hits c < cache_lookups c asr min_hit_shift
  then begin
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

(* Local ids fit 16 bits (cone_budget + transient slack << 65536). *)
let add_id buf i = Buffer.add_int16_ne buf i

(* Build the canonical cone signature rooted at [node]; fills
   [c.cone]/[c.local_of] with the local enumeration and returns the
   key, or [None] if the cone exceeds the budget. *)
let cone_key c db cls g ~fanouts ~levels node =
  c.cone_len <- 0;
  Hashtbl.reset c.local_of;
  let buf = c.buf in
  Buffer.clear buf;
  Buffer.add_char buf
    (match cls with
     | Matcher.Standard -> 's'
     | Matcher.Exact -> 'e'
     | Matcher.Extended -> 'x');
  Buffer.add_int8 buf (min levels.(node) db.max_depth);
  let exact = cls = Matcher.Exact in
  (* Breadth-first so that first-visit depth equals min-depth: a node
     expanded once is expandable from every occurrence. *)
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
      (if d >= db.max_depth then Buffer.add_char buf 'f'
       else
         match Subject.kind g sid with
         | Subject.Spi -> Buffer.add_char buf 'p'
         | Subject.Sinv x ->
           Buffer.add_char buf 'i';
           add_id buf (child x)
         | Subject.Snand (x, y) ->
           Buffer.add_char buf 'n';
           let lx = child x in
           let ly = child y in
           add_id buf lx;
           add_id buf ly);
      (* The exact class compares subject fanouts against pattern
         fanouts, which are tiny; every count >= 255 is equivalent, so
         one clamped byte keeps the key injective where it matters. *)
      if exact && d > 0 && d < db.max_depth then
        Buffer.add_int8 buf (min fanouts.(sid) 255)
    end
  done;
  if !ok then Some (Buffer.contents buf) else None

let translate c (e : centry) =
  let pins =
    Array.map (fun l -> if l >= 0 then c.cone.(l) else -1) e.c_pins
  in
  let covered = Array.map (fun l -> c.cone.(l)) e.c_covered in
  (* The matcher reports covered nodes sorted by subject id; keep the
     translated match bit-identical to a fresh enumeration. *)
  Array.sort compare covered;
  { Matcher.pattern = e.c_pattern; pins; covered }

let intern c (m : Matcher.mtch) =
  { c_pattern = m.Matcher.pattern;
    c_pins =
      Array.map
        (fun s -> if s >= 0 then Hashtbl.find c.local_of s else -1)
        m.Matcher.pins;
    c_covered = Array.map (fun s -> Hashtbl.find c.local_of s) m.Matcher.covered }

let for_each_node_match ?cache db cls g ~fanouts ~levels node f =
  match cache, Subject.kind g node with
  | None, _ | _, Spi -> enumerate db cls g ~fanouts ~levels node f
  | Some c, (Snand _ | Sinv _) when c.disabled ->
    enumerate db cls g ~fanouts ~levels node f
  | Some c, (Snand _ | Sinv _) -> begin
    count_lookup c;
    match cone_key c db cls g ~fanouts ~levels node with
    | None ->
      (* Over-budget cone: charge a miss, don't store. *)
      count_miss c;
      maybe_retire c;
      enumerate db cls g ~fanouts ~levels node f
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
          enumerate db cls g ~fanouts ~levels node (fun m ->
              acc := intern c m :: !acc;
              f m)
        in
        if not c.disabled then Hashtbl.replace c.table key (List.rev !acc);
        tried
    end
  end

let node_matches ?cache db cls g ~fanouts ~levels node =
  let acc = ref [] in
  ignore
    (for_each_node_match ?cache db cls g ~fanouts ~levels node (fun m ->
         acc := m :: !acc));
  List.rev !acc
