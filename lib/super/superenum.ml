open Dagmap_logic
open Dagmap_genlib
open Dagmap_core
open Dagmap_obs

type bounds = {
  depth : int;
  max_pins : int;
  max_size : int;
  max_gates : int;
  fusion : float;
  class_cap : int;
}

let default_bounds =
  { depth = 2;
    max_pins = 5;
    max_size = 4;
    max_gates = 200;
    fusion = 0.85;
    class_cap = 2 }

type stats = {
  considered : int;
  distinct_classes : int;
  emitted : int;
  seconds : float;
}

(* One enumerated composition, annotated with everything the
   dedup/dominance pass sorts on. All fields are deterministic
   functions of the tree, so the global sort erases whatever order
   the parallel enumeration produced them in. *)
type cand = {
  tree : Supergate.tree;
  func : Truth.t;
  key : string;     (* Supercanon class key *)
  leaves : int;
  size : int;
  dep : int;
  max_delay : float;
  area : float;
  skey : string;    (* structure string: injective final tiebreak *)
  from_base : bool; (* seeded library gate: prunes, never emitted *)
}

(* Total order within one NPN class: delay-dominance first. *)
let cand_order a b =
  let c = compare a.max_delay b.max_delay in
  if c <> 0 then c
  else
    let c = compare a.area b.area in
    if c <> 0 then c
    else
      let c = compare a.size b.size in
      if c <> 0 then c
      else
        let c = compare a.leaves b.leaves in
        if c <> 0 then c else compare a.skey b.skey

(* Pareto frontier on (max_delay, area) of a class-sorted list: keep
   a candidate iff it is strictly smaller in area than everything
   faster than it. Base gates always stay (they are free — already in
   the library — and their presence prunes supergates that match an
   existing cell without beating it); at most [class_cap] supergates
   survive per class. *)
let prune class_cap cands =
  let rec go kept nsuper min_area = function
    | [] -> List.rev kept
    | c :: rest ->
      if c.area < min_area -. 1e-9 then
        if c.from_base then go (c :: kept) nsuper c.area rest
        else if nsuper < class_cap then go (c :: kept) (nsuper + 1) c.area rest
        else go kept nsuper min_area rest
      else go kept nsuper min_area rest
  in
  go [] 0 infinity cands

let validate b =
  if b.depth < 2 then invalid_arg "Superenum: depth must be >= 2";
  if b.max_pins < 2 || b.max_pins > 6 then
    invalid_arg "Superenum: max_pins must be in 2..6";
  if b.max_size < 2 then invalid_arg "Superenum: max_size must be >= 2";
  if b.max_gates < 0 then invalid_arg "Superenum: max_gates must be >= 0";
  if not (b.fusion > 0.0 && b.fusion <= 1.0) then
    invalid_arg "Superenum: fusion must be in (0, 1]";
  if b.class_cap < 1 then invalid_arg "Superenum: class_cap must be >= 1"

(* Gates usable as composition members: real logic cells. Buffers and
   constants only pad compositions; single-pin inverters are kept
   (inv over a NAND tree is how AND/OR shapes arise). *)
let usable b g =
  let p = Gate.num_pins g in
  p >= 1 && p <= b.max_pins
  && (not (Gate.is_buffer g))
  && Gate.is_constant g = None

let make_cand ~fusion ~from_base memo tree func =
  { tree;
    func;
    key = Supercanon.key memo func;
    leaves = Supergate.leaves tree;
    size = Supergate.size tree;
    dep = Supergate.depth tree;
    max_delay = Supergate.max_delay ~fusion tree;
    area = Supergate.quantize (Supergate.area tree);
    skey = Supergate.structure tree;
    from_base }

(* All compositions rooted at [g] of depth exactly [d]: each pin is a
   leaf or a subtree from [pool] (depth <= d - 1, at least one of
   depth exactly d - 1, so each level enumerates only new trees).
   Budgets: every unassigned pin still needs one leaf; gate count
   capped by [max_size]. *)
let enumerate_root b ~d ~pool ~consider g =
  let p = Gate.num_pins g in
  let children = Array.make p Supergate.Leaf in
  let rec assign pin leaves_used size_used has_deep =
    if pin = p then begin
      if has_deep then
        consider { Supergate.gate = g; children = Array.copy children }
    end
    else begin
      let rest = p - pin - 1 in
      if leaves_used + 1 + rest <= b.max_pins then begin
        children.(pin) <- Supergate.Leaf;
        assign (pin + 1) (leaves_used + 1) size_used has_deep
      end;
      List.iter
        (fun (st, l, s, dp) ->
          if
            dp <= d - 1
            && leaves_used + l + rest <= b.max_pins
            && size_used + s <= b.max_size
          then begin
            children.(pin) <- Supergate.Sub st;
            assign (pin + 1) (leaves_used + l) (size_used + s)
              (has_deep || dp = d - 1)
          end)
        pool
    end
  in
  assign 0 0 1 false

let generate ?(bounds = default_bounds) ?(jobs = 1) (lib : Libraries.t) =
  validate bounds;
  let b = bounds in
  let jobs = max 1 jobs in
  let t0 = Clock.now () in
  let base = List.filter (usable b) lib.Libraries.gates in
  let roots = Array.of_list base in
  (* Per-class table of pruned candidates, seeded with the base gates
     so a supergate only survives when it beats (or complements) what
     the library already has. *)
  let table : (string, cand list) Hashtbl.t = Hashtbl.create 256 in
  let memo0 = Supercanon.create_memo () in
  let considered_total = ref 0 in
  List.iter
    (fun g ->
      if Gate.num_pins g >= 2 then begin
        let tree = Supergate.single g in
        let c =
          make_cand ~fusion:b.fusion ~from_base:true memo0 tree g.Gate.func
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt table c.key) in
        Hashtbl.replace table c.key
          (prune b.class_cap (List.sort cand_order (c :: prev)))
      end)
    base;
  (* Merge a level's raw candidates into the table. Sorting the whole
     batch (class key first, dominance order within a class) before
     grouping makes the result independent of how the parallel
     enumeration partitioned the work. *)
  let merge_level cands =
    let cands =
      List.sort
        (fun a b ->
          let c = compare a.key b.key in
          if c <> 0 then c else cand_order a b)
        cands
    in
    let flush key group =
      let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
      let merged = List.merge cand_order prev (List.rev group) in
      Hashtbl.replace table key (prune b.class_cap merged)
    in
    let rec go cur group = function
      | [] -> (match cur with Some k -> flush k group | None -> ())
      | c :: rest -> (
        match cur with
        | Some k when String.equal k c.key -> go cur (c :: group) rest
        | Some k ->
          flush k group;
          go (Some c.key) [ c ] rest
        | None -> go (Some c.key) [ c ] rest)
    in
    go None [] cands
  in
  let supergate_reps () =
    Hashtbl.fold
      (fun _ cs acc ->
        List.fold_left
          (fun acc c -> if c.from_base then acc else c :: acc)
          acc cs)
      table []
  in
  let pool_domain = if jobs > 1 then Some (Parmap.make_pool (jobs - 1)) else None in
  let memos = Array.init jobs (fun _ -> Supercanon.create_memo ()) in
  Fun.protect
    ~finally:(fun () -> Option.iter Parmap.shutdown_pool pool_domain)
    (fun () ->
      for d = 2 to b.depth do
        Span.with_span ~cat:"superenum" (Printf.sprintf "depth %d" d)
        @@ fun () ->
        (* Subtrees available at this level: single base gates plus
           every supergate representative from lower levels. *)
        let pool =
          List.map (fun g -> (Supergate.single g, Gate.num_pins g, 1, 1)) base
          @ List.map
              (fun c -> (c.tree, c.leaves, c.size, c.dep))
              (List.sort cand_order (supergate_reps ()))
        in
        let results = Array.make jobs [] in
        let considered = Array.make jobs 0 in
        let cursor = Atomic.make 0 in
        let work w =
          let memo = memos.(w) in
          let consider tree =
            considered.(w) <- considered.(w) + 1;
            let leaves = Supergate.leaves tree in
            if leaves >= 2 then begin
              let func = Supergate.func tree in
              if
                Truth.is_const func = None
                && List.length (Truth.support func) = leaves
              then
                results.(w) <-
                  make_cand ~fusion:b.fusion ~from_base:false memo tree func
                  :: results.(w)
            end
          in
          let rec loop () =
            let r = Atomic.fetch_and_add cursor 1 in
            if r < Array.length roots then begin
              enumerate_root b ~d ~pool ~consider roots.(r);
              loop ()
            end
          in
          loop ()
        in
        (match pool_domain with
         | Some p -> Parmap.run_pool p work
         | None -> work 0);
        considered_total :=
          !considered_total + Array.fold_left ( + ) 0 considered;
        merge_level (List.concat (Array.to_list results))
      done);
  (* Emission: stable global order, then names that encode rank,
     leaves and depth — byte-identical across runs and job counts. *)
  let reps =
    List.sort
      (fun a b ->
        let c = compare a.leaves b.leaves in
        if c <> 0 then c
        else
          let c = compare a.dep b.dep in
          if c <> 0 then c
          else
            let c = cand_order a b in
            if c <> 0 then c else compare a.key b.key)
      (supergate_reps ())
  in
  let reps = List.filteri (fun i _ -> i < b.max_gates) reps in
  let gates =
    List.mapi
      (fun i c ->
        let name = Printf.sprintf "sg%d_%dx%d" i c.leaves c.dep in
        Supergate.to_gate ~fusion:b.fusion ~name c.tree)
      reps
  in
  Metrics.Counter.add (Metrics.counter "superenum.considered") !considered_total;
  Metrics.Counter.add (Metrics.counter "superenum.emitted") (List.length gates);
  let stats =
    { considered = !considered_total;
      distinct_classes = Hashtbl.length table;
      emitted = List.length gates;
      seconds = Clock.now () -. t0 }
  in
  (gates, stats)
