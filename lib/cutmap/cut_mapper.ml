open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

type choice = {
  cut : Cuts.cut;
  entry : Boolean_match.entry;
}

type result = {
  netlist : Netlist.t;
  labels : float array;
  chosen : choice option array;
  matched_nodes : int;
  matches_evaluated : int;
  par : Parmap.par_stats;
}

(* Worst leaf arrival through the entry's gate pins. Starts at
   [neg_infinity] so negative leaf labels (early external arrivals)
   are never clamped to zero — the same fix PR 3 applied to
   [Mapper.match_arrival]; a [ref 0.0] max-fold here silently floored
   every negative arrival. *)
let choice_arrival label (c : choice) =
  let gate = c.entry.Boolean_match.gate in
  let worst = ref neg_infinity in
  Array.iteri
    (fun j leaf ->
      let pin = c.entry.Boolean_match.pin_of_input.(j) in
      worst := Float.max !worst (label leaf +. Gate.intrinsic_delay gate pin))
    c.cut.Cuts.leaves;
  if !worst = neg_infinity then 0.0 else !worst

let unmatched_penalty =
  (* roughly one gate delay *)
  1.0

(* Keep the better of [best] and the candidate [c]: smaller arrival,
   then smaller area, then the earlier candidate. *)
let keep_better best arrival area c =
  match best with
  | Some (a, ar, _)
    when arrival > a +. 1e-12 || (arrival > a -. 1e-12 && area >= ar) -> best
  | Some _ | None -> Some (arrival, area, c)

(* The per-node label verdict. *)
type verdict =
  | Vconst of bool                (* some cut folded to a constant *)
  | Vmatched of float * choice    (* best realized arrival + choice *)
  | Vnone                         (* no cut matched: unmappable *)

(* Evaluate one gate node with fanins [x] and [y] ([y < 0] for an
   inverter): merge the fanins' stored cut sets through the node's
   operator, score every merged cut against the Boolean index, keep
   the [priority] best plus the direct-fanin fallback and the trivial
   cut, and label from the best over ALL evaluated cuts (search all,
   not just kept, so the label is as tight as the cut set allows).

   Enumeration is interleaved with labeling so priority pruning can
   rank cuts by what they actually achieve: a matched cut ranks by
   its realized arrival; an unmatched cut (still useful as a building
   block for wider parent cuts) ranks by its worst leaf label plus a
   penalty that sorts it behind matched cuts of similar depth.

   The whole evaluation is a pure function of the fanins' stored cut
   lists and strictly lower labels, which is what lets the sweep run
   a level's nodes in any order on any domain with bit-identical
   results. *)
let eval_node ~k ~priority ~levels ~label db ~stored_of x y node =
  let merged, fanins =
    if y < 0 then
      ( Cuts.merged_generic ~k levels
          (fun fs -> Truth.lognot fs.(0))
          [ stored_of x ],
        [ x ] )
    else
      ( Cuts.merged_generic ~k levels
          (fun fs -> Truth.lognand fs.(0) fs.(1))
          [ stored_of x; stored_of y ],
        [ x; y ] )
  in
  let matches_evaluated = ref 0 in
  (* Evaluate every merged cut once; remember its best match. *)
  let evaluated =
    List.map
      (fun (cut : Cuts.cut) ->
        match Truth.is_const cut.Cuts.func with
        | Some b -> (cut, `Const b)
        | None ->
          let best =
            List.fold_left
              (fun best entry ->
                incr matches_evaluated;
                let c = { cut; entry } in
                keep_better best (choice_arrival label c)
                  entry.Boolean_match.gate.Gate.area c)
              None
              (Boolean_match.lookup db cut.Cuts.func)
          in
          (match best with
           | Some (arrival, area, c) -> (cut, `Matched (arrival, area, c))
           | None ->
             (* Same neg_infinity start as [choice_arrival]: the
                unmatched score must track genuinely negative leaf
                labels too. *)
             let worst = ref neg_infinity in
             Array.iter
               (fun l -> worst := Float.max !worst (label l))
               cut.Cuts.leaves;
             let worst = if !worst = neg_infinity then 0.0 else !worst in
             (cut, `Unmatched worst)))
      merged
  in
  let score = function
    | _, `Const _ -> (neg_infinity, 0)
    | cut, `Matched (arrival, _, _) -> (arrival, Array.length cut.Cuts.leaves)
    | cut, `Unmatched worst ->
      (worst +. unmatched_penalty, Array.length cut.Cuts.leaves)
  in
  let sorted =
    List.sort (fun a b -> compare (score a) (score b)) evaluated
  in
  let kept = List.filteri (fun i _ -> i < priority) sorted in
  (* One retention rule, shared with the tests' reference enumerator:
     the direct-fanin cut (or its support-shrunk descendant) always
     survives pruning. *)
  let kept =
    Cuts.retain_fallback ~fanins
      ~leaves_of:(fun ((c : Cuts.cut), _) -> c.Cuts.leaves)
      ~all:evaluated kept
  in
  let stored = List.map fst kept @ [ Cuts.trivial ~levels node ] in
  let const_v = ref None and best = ref None in
  List.iter
    (function
      | _, `Const b -> const_v := Some b
      | _, `Matched (arrival, area, c) ->
        best := keep_better !best arrival area c
      | _, `Unmatched _ -> ())
    evaluated;
  let verdict =
    match !const_v, !best with
    | Some b, _ -> Vconst b
    | None, Some (arrival, _, c) -> Vmatched (arrival, c)
    | None, None -> Vnone
  in
  (stored, verdict, !matches_evaluated)

(* Cover construction with free duplication, as in the paper,
   through the shared builder: a FIFO seeded with the output drivers;
   each popped node contributes one instance whose inputs are its
   chosen cut's leaves. Constant-folded nodes drive constants and need
   no instance. *)
let cover g ~levels ~(chosen : choice option array)
    ~(const_node : bool option array) =
  let choice node =
    match chosen.(node) with Some c -> c | None -> assert false
  in
  let folded node = const_node.(node) <> None in
  let c =
    { Cover.gate = (fun node -> (choice node).entry.Boolean_match.gate);
      inputs =
        (fun node f ->
          let c = choice node in
          Array.iteri
            (fun j leaf -> f c.entry.Boolean_match.pin_of_input.(j) leaf)
            c.cut.Cuts.leaves);
      covers =
        (fun node ->
          Array.of_list (Cuts.cut_cone g ~levels ~folded node (choice node).cut));
      constant = (fun node -> const_node.(node)) }
  in
  Cover.netlist g c (Cover.walk g c)

(* The cut store: three flat buffers indexed by slot [node * cap + i],
   written once by the node's own sweep visit and read only by
   strictly higher levels (after the level barrier).

     leaves : int Bigarray, [k] ints per slot (cut leaves, sorted)
     funcs  : int64 Bigarray, one word per slot (Truth.to_bits; cut
              width <= 6 so one word always suffices)
     widths : Bytes, one byte per slot (leaf count, 0 for a cut that
              shrank to a constant)
     counts : cuts stored per node

   A node stores at most [priority + 2] cuts (the kept ones, one
   appended fallback and its trivial cut), but under full enumeration
   that bound is far above what nodes really store, so the capacity
   starts at [min priority 62 + 2] (exact up to priority 62) and a
   node that needs more raises [Overflow]: the sweep is deterministic,
   so {!map} simply reruns it with a larger capacity. *)
exception Overflow of int

type store = {
  cap : int;
  leaves : Subject.iarr;
  funcs : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  widths : Bytes.t;
  counts : int array;
}

let create_store ~k ~cap n =
  let slots = max 1 (n * cap) in
  { cap;
    leaves = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (slots * k);
    funcs = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout slots;
    widths = Bytes.make slots '\000';
    counts = Array.make (max 1 n) 0 }

let store_node ~k st node cuts =
  let count = List.length cuts in
  if count > st.cap then raise (Overflow count);
  List.iteri
    (fun i (c : Cuts.cut) ->
      let s = (node * st.cap) + i in
      let w = Array.length c.Cuts.leaves in
      Bytes.unsafe_set st.widths s (Char.unsafe_chr w);
      Bigarray.Array1.unsafe_set st.funcs s (Truth.to_bits c.Cuts.func);
      for j = 0 to w - 1 do
        Bigarray.Array1.unsafe_set st.leaves ((s * k) + j) c.Cuts.leaves.(j)
      done)
    cuts;
  st.counts.(node) <- count

(* Rebuild a node's stored cut list in stored order; depths are
   recomputed from [levels] exactly as the enumerator computed them,
   and [Truth.of_bits] restores the normalized table exactly. *)
let stored_of ~k ~levels st x =
  let base = x * st.cap in
  let rec build i acc =
    if i < 0 then acc
    else
      let s = base + i in
      let w = Char.code (Bytes.unsafe_get st.widths s) in
      let lv =
        Array.init w (fun j ->
            Bigarray.Array1.unsafe_get st.leaves ((s * k) + j))
      in
      let func = Truth.of_bits w (Bigarray.Array1.unsafe_get st.funcs s) in
      let depth = Array.fold_left (fun acc l -> max acc levels.(l)) 0 lv in
      build (i - 1) ({ Cuts.leaves = lv; func; depth } :: acc)
  in
  build (st.counts.(x) - 1) []

let map ?(jobs = 1) ?(k = 5) ?(priority = 50) ?(pi_arrival = fun _ -> 0.0) db
    g =
  let jobs = max 1 jobs in
  (* Cuts wider than the widest library gate can never match (and the
     widest gate has <= 6 pins, so every stored function fits one
     truth-table word). *)
  let k = max 2 (min k (Boolean_match.max_arity db)) in
  (* Keeping fewer than none or more than every cut is the same as
     keeping none or every one; the clamp keeps [priority + 2] from
     wrapping around. *)
  let priority = max 0 (min priority (max_int - 2)) in
  let n = Subject.num_nodes g in
  let levels = Subject.levels g in
  let max_cap = priority + 2 in
  let rec attempt cap =
    let st = create_store ~k ~cap n in
    let labels = Array.make (max 1 n) 0.0 in
    let chosen : choice option array = Array.make (max 1 n) None in
    let const_node : bool option array = Array.make (max 1 n) None in
    let evaluated = Array.make jobs 0 in
    let matched = Array.make jobs 0 in
    let label l = labels.(l) in
    let stored_of = stored_of ~k ~levels st in
    let f0 = g.Subject.fanin0 and f1 = g.Subject.fanin1 in
    let visit w node =
      let x = Bigarray.Array1.unsafe_get f0 node in
      if x < 0 then begin
        labels.(node) <- pi_arrival node;
        store_node ~k st node [ Cuts.trivial ~levels node ]
      end
      else begin
        let y = Bigarray.Array1.unsafe_get f1 node in
        let cuts, verdict, ev =
          eval_node ~k ~priority ~levels ~label db ~stored_of x y node
        in
        store_node ~k st node cuts;
        evaluated.(w) <- evaluated.(w) + ev;
        match verdict with
        | Vconst b -> const_node.(node) <- Some b
        | Vmatched (arrival, c) ->
          chosen.(node) <- Some c;
          labels.(node) <- arrival;
          matched.(w) <- matched.(w) + 1
        | Vnone ->
          raise
            (Mapper.Unmappable
               { node;
                 description =
                   Printf.sprintf
                     "no Boolean match for any cut of subject node %d" node })
      end
    in
    match Parmap.sweep ~jobs g visit with
    | par -> (labels, chosen, const_node, evaluated, matched, par)
    | exception Overflow need when cap < max_cap ->
      (* Grow at least to what the overflowing node asked for, so a
         node far over the capacity costs one rerun, not several. *)
      attempt (min max_cap (max need (2 * cap)))
  in
  let labels, chosen, const_node, evaluated, matched, par =
    attempt (min priority 62 + 2)
  in
  let sum = Array.fold_left ( + ) 0 in
  { netlist = cover g ~levels ~chosen ~const_node;
    labels;
    chosen;
    matched_nodes = sum matched;
    matches_evaluated = sum evaluated;
    par }

let predicted_arrivals r = Mapper.predicted_at r.netlist.Netlist.source r.labels
