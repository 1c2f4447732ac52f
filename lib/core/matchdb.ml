open Dagmap_genlib
open Dagmap_subject

(* ------------------------------------------------------------------ *)
(* Shape index                                                         *)
(* ------------------------------------------------------------------ *)

(* Typed reads: an unannotated [Bigarray.Array1.unsafe_get] stays
   polymorphic and compiles to a bounds-checked C call per read. *)
let fanin (v : Subject.iarr) i = Bigarray.Array1.unsafe_get v i

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

let rec shape_code a d node =
  if d = 0 then 0
  else
    let x = fanin a.Subject.fanin0 node in
    if x < 0 then 0
    else
      let cx = shape_code a (d - 1) x in
      let y = fanin a.Subject.fanin1 node in
      if y < 0 then 1 + cx
      else
        let cy = shape_code a (d - 1) y in
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
let rec fits a dm node =
  match dm with
  | Any -> true
  | Inv c ->
    let x = fanin a.Subject.fanin0 node in
    x >= 0 && fanin a.Subject.fanin1 node < 0 && fits a c x
  | Nand (l, r) ->
    let x = fanin a.Subject.fanin0 node and y = fanin a.Subject.fanin1 node in
    x >= 0 && y >= 0
    && ((fits a l x && fits a r y) || (fits a l y && fits a r x))

(* ------------------------------------------------------------------ *)
(* Pruning: symmetric NANDs and redundant patterns                     *)
(* ------------------------------------------------------------------ *)

(* The canonical form of a subtree: NAND children in either order,
   each leaf written as its pin's delay. [form_hashes] hashes every
   node's form bottom up (nodes are topologically ordered); [same]
   then compares two forms structurally, trying only the child
   pairings whose hashes agree. Equal forms mean isomorphic subtrees
   with equal delays at corresponding leaves; delays compare by their
   bits, so that equality is exact. *)
let delay_bits p pin =
  Int64.bits_of_float (Gate.intrinsic_delay p.Pattern.gate pin)

let mix a b = ((a * 0x2545F491) + b + (a lsr 29)) land max_int

(* The form hashes of a strict tree's nodes, or [None] when [p] is not
   a strict tree: some node feeds two users (leaves included), or some
   pin sits at two leaves. Only in a strict tree are the two subtrees
   under a NAND disjoint, so that swapping their images gives another
   valid binding. A leaf-shared pattern like [mux21], whose select pin
   reaches the root both directly and through an inverter, has no
   such swap. *)
let form_hashes p =
  let nodes = p.Pattern.nodes in
  let n = Array.length nodes in
  let h = Array.make n 0 in
  let pin_seen = Array.make (Gate.num_pins p.Pattern.gate) false in
  let strict = ref true and i = ref 0 in
  while !strict && !i < n do
    let k = !i in
    if p.Pattern.fanout.(k) > 1 then strict := false;
    (match nodes.(k) with
     | Pattern.Pleaf pin ->
       if pin_seen.(pin) then strict := false;
       pin_seen.(pin) <- true;
       h.(k) <- mix 1 (Int64.to_int (delay_bits p pin))
     | Pattern.Pinv c -> h.(k) <- mix 2 h.(c)
     | Pattern.Pnand (a, b) ->
       h.(k) <- mix (mix 3 (min h.(a) h.(b))) (max h.(a) h.(b)));
    incr i
  done;
  if !strict then Some h else None

let rec same p hp i q hq j =
  hp.(i) = hq.(j)
  &&
  match p.Pattern.nodes.(i), q.Pattern.nodes.(j) with
  | Pattern.Pleaf a, Pattern.Pleaf b ->
    Int64.equal (delay_bits p a) (delay_bits q b)
  | Pattern.Pinv a, Pattern.Pinv b -> same p hp a q hq b
  | Pattern.Pnand (a, b), Pattern.Pnand (c, d) ->
    (same p hp a q hq c && same p hp b q hq d)
    || (same p hp a q hq d && same p hp b q hq c)
  | (Pattern.Pleaf _ | Pattern.Pinv _ | Pattern.Pnand _), _ -> false

(* The NANDs of a strict tree whose two subtrees are isomorphic with
   equal pin delays. The labeler tries only the first child order
   there; the second order yields only twins (the same gate and the
   same multiset of subject node and pin delay) of bindings the first
   order already gave. *)
let symmetric_nands p h =
  let nodes = p.Pattern.nodes in
  let mask = ref Bytes.empty in
  for i = 0 to Array.length nodes - 1 do
    match nodes.(i) with
    | Pattern.Pnand (a, b) when same p h a p h b ->
      if Bytes.length !mask = 0 then
        mask := Bytes.make (Array.length nodes) '\000';
      Bytes.set !mask i '\001'
    | Pattern.Pleaf _ | Pattern.Pinv _ | Pattern.Pnand _ -> ()
  done;
  !mask

(* Patterns of one root kind, in enumeration order, each tagged with
   the index of its demand in [demands]. [first] is the pattern id of
   [patterns.(0)]. *)
type rooted = {
  first : int;
  patterns : Pattern.t array;
  demand_ix : int array;
  demands : demand array;
}

let rooted first patterns =
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
  { first; patterns; demand_ix; demands = Array.of_list (List.rev !demands) }

type t = {
  lib : Libraries.t;
  (* INV- and NAND-rooted patterns in enumeration order. The order is
     the walk of the former top-two-level buckets (see [bucket_rank]);
     it decides ties between equally good matches, so it is part of
     the bit-identity contract. A pattern's id is its position in
     [patterns]: the INV-rooted ones first. *)
  patterns : Pattern.t array;
  inv_rooted : rooted;
  nand_rooted : rooted;
  masks : Bytes.t array;
      (* pattern id -> its symmetric NANDs ([Bytes.empty]: none) *)
  redundant : Bytes.t;
      (* pattern id -> '\001' when an earlier pattern of the same gate
         is delay-isomorphic to it *)
  max_nodes : int;
  max_pins : int;
  shapes : int array option array;
      (* shape code -> the ids of the patterns of the matching
         [*_rooted] that fit it, filled on first use (see
         [candidates]) *)
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
    Array.of_list
      (List.filter (fun p -> f p.Pattern.nodes.(p.Pattern.root)) ranked)
  in
  (* Wire/buffer patterns (leaf roots) cannot root a cover. *)
  let inv = rooted_by (function Pattern.Pinv _ -> true | _ -> false) in
  let nand = rooted_by (function Pattern.Pnand _ -> true | _ -> false) in
  let patterns = Array.append inv nand in
  let n = Array.length patterns in
  let masks = Array.make n Bytes.empty and redundant = Bytes.make n '\000' in
  (* The strict trees seen so far, by root hash; a pattern is
     redundant when an earlier one of the same gate has the same root
     form. Only the patterns are kept: an earlier pattern's hashes are
     recomputed on the rare root-hash hit, so the table stays small. *)
  let roots = Hashtbl.create 256 in
  Array.iteri
    (fun id p ->
      match form_hashes p with
      | None -> ()
      | Some h ->
        masks.(id) <- symmetric_nands p h;
        let root = h.(p.Pattern.root) in
        let twin q =
          q.Pattern.gate == p.Pattern.gate
          &&
          match form_hashes q with
          | Some hq -> same p h p.Pattern.root q hq q.Pattern.root
          | None -> false
        in
        if List.exists twin (Hashtbl.find_all roots root) then
          Bytes.set redundant id '\001'
        else Hashtbl.add roots root p)
    patterns;
  { lib;
    patterns;
    inv_rooted = rooted 0 inv;
    nand_rooted = rooted (Array.length inv) nand;
    masks;
    redundant;
    max_nodes =
      Array.fold_left (fun m p -> max m (Array.length p.Pattern.nodes)) 1 patterns;
    max_pins =
      Array.fold_left
        (fun m p -> max m (Gate.num_pins p.Pattern.gate))
        1 patterns;
    shapes = Array.make shape_count.(shape_levels) None;
    boolean_memo = None }

let library db = db.lib

(* One Boolean index per prepared library, built on first use: the
   structural and cut mappers then share a single permutation-variant
   table instead of each consumer re-running [Boolean_match.prepare].
   The memo write is a single pointer store; a concurrent race at
   worst builds the index twice with identical contents (same benign
   pattern as [Subject.levels_memo]). *)
let boolean db =
  match db.boolean_memo with
  | Some b -> b
  | None ->
    let b = Boolean_match.prepare db.lib in
    db.boolean_memo <- Some b;
    b

let num_patterns db = List.length db.lib.Libraries.patterns

let rooting_patterns db = Array.to_list db.patterns

let pattern db id = db.patterns.(id)
let symmetric db id = db.masks.(id)
let redundant db id = Bytes.get db.redundant id <> '\000'
let max_nodes db = db.max_nodes
let max_pins db = db.max_pins

(* A slot is filled the first time its shape is seen, from the node
   in hand; equal codes give equal fills, so the store is the same
   benign race as [boolean_memo]: concurrent labelers at worst compute
   one slot twice. *)
let candidates db a node =
  if fanin a.Subject.fanin0 node < 0 then [||]
  else
    let code = shape_code a shape_levels node in
    match db.shapes.(code) with
    | Some ids -> ids
    | None ->
      let r =
        if fanin a.Subject.fanin1 node < 0 then db.inv_rooted
        else db.nand_rooted
      in
      let ok = Array.map (fun dm -> fits a dm node) r.demands in
      let ids = ref [] in
      for i = Array.length r.patterns - 1 downto 0 do
        if ok.(r.demand_ix.(i)) then ids := (r.first + i) :: !ids
      done;
      let ids = Array.of_list !ids in
      db.shapes.(code) <- Some ids;
      ids

let for_each_candidate db a ~pruned ~level node try_pattern =
  let ids = candidates db a node in
  let tried = ref 0 in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    if
      db.patterns.(id).Pattern.depth <= level
      && not (pruned && Bytes.unsafe_get db.redundant id <> '\000')
    then begin
      incr tried;
      try_pattern id
    end
  done;
  !tried
