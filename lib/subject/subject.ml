open Dagmap_logic

type kind =
  | Spi
  | Snand of int * int
  | Sinv of int

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  fanin0 : iarr;
  fanin1 : iarr;
  n : int;
  num_pis : int;
  pi_nodes : int array;
  pi_names : string array;
  outputs : (string * int) array;
  const_outputs : (string * bool) list;
  n_latches : int;
  mutable levels_memo : int array option;
}

let num_nodes g = g.n

let is_pi g i = Bigarray.Array1.unsafe_get g.fanin0 i < 0

let fanin0 g i = Bigarray.Array1.get g.fanin0 i
let fanin1 g i = Bigarray.Array1.get g.fanin1 i

let kind g i =
  let f0 = Bigarray.Array1.get g.fanin0 i in
  if f0 < 0 then Spi
  else
    let f1 = Bigarray.Array1.get g.fanin1 i in
    if f1 < 0 then Sinv f0 else Snand (f0, f1)

let fanins g i =
  let f0 = Bigarray.Array1.get g.fanin0 i in
  if f0 < 0 then []
  else
    let f1 = Bigarray.Array1.get g.fanin1 i in
    if f1 < 0 then [ f0 ] else [ f0; f1 ]

let mem_bytes g = 2 * 8 * g.n

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type graph = t

  type t = {
    mutable f0 : int array;
    mutable f1 : int array;
    mutable count : int;
    mutable pi_ids_rev : int list;
    mutable pi_names_rev : string list;
    mutable outs_rev : (string * int) list;
    mutable consts_rev : (string * bool) list;
    (* Structural hash on packed int keys: NAND(x, y) with x <= y is
       [x lsl 31 lor y]; INV(x) is [-(x + 1)]. Node ids stay below
       2^31, so NAND keys are distinct non-negative ints and INV keys
       distinct negative ints. *)
    hash : (int, int) Hashtbl.t;
  }

  let create ?(hint = 1024) () =
    let hint = max hint 16 in
    { f0 = Array.make hint 0;
      f1 = Array.make hint 0;
      count = 0;
      pi_ids_rev = [];
      pi_names_rev = [];
      outs_rev = [];
      consts_rev = [];
      hash = Hashtbl.create (max 64 (hint / 4)) }

  let max_id = (1 lsl 31) - 1

  let push b f0 f1 =
    let id = b.count in
    if id > max_id then invalid_arg "Subject.Builder: node id overflow";
    if id = Array.length b.f0 then begin
      let cap = 2 * id in
      let g0 = Array.make cap 0 and g1 = Array.make cap 0 in
      Array.blit b.f0 0 g0 0 id;
      Array.blit b.f1 0 g1 0 id;
      b.f0 <- g0;
      b.f1 <- g1
    end;
    b.f0.(id) <- f0;
    b.f1.(id) <- f1;
    b.count <- id + 1;
    id

  let pi b name =
    b.pi_names_rev <- name :: b.pi_names_rev;
    let id = push b (-1) (-1) in
    b.pi_ids_rev <- id :: b.pi_ids_rev;
    id

  let check b i =
    if i < 0 || i >= b.count then invalid_arg "Subject.Builder: bad node id"

  let nand_key x y = (x lsl 31) lor y
  let inv_key x = -(x + 1)

  let hashed b key f0 f1 =
    match Hashtbl.find_opt b.hash key with
    | Some id -> id
    | None ->
      let id = push b f0 f1 in
      Hashtbl.add b.hash key id;
      id

  let inv b x =
    check b x;
    if b.f0.(x) >= 0 && b.f1.(x) < 0 then b.f0.(x)
    else hashed b (inv_key x) x (-1)

  (* nand(x, x) = !x: folding it keeps every node matchable under the
     one-to-one (standard) match class, where a NAND with coincident
     fanins could otherwise only match via extended matches. *)
  let nand b x y =
    check b x;
    check b y;
    if x = y then inv b x
    else
      let x, y = if x <= y then (x, y) else (y, x) in
      hashed b (nand_key x y) x y

  let raw_nand b x y =
    check b x;
    check b y;
    push b x y

  let raw_inv b x =
    check b x;
    push b x (-1)

  let output b name node =
    check b node;
    b.outs_rev <- (name, node) :: b.outs_rev

  let const_output b name value = b.consts_rev <- (name, value) :: b.consts_rev

  let finish ?(n_latches = 0) b =
    let n = b.count in
    let fanin0 = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    let fanin1 = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set fanin0 i b.f0.(i);
      Bigarray.Array1.unsafe_set fanin1 i b.f1.(i)
    done;
    let pi_nodes = Array.of_list (List.rev b.pi_ids_rev) in
    { fanin0;
      fanin1;
      n;
      num_pis = Array.length pi_nodes;
      pi_nodes;
      pi_names = Array.of_list (List.rev b.pi_names_rev);
      outputs = Array.of_list (List.rev b.outs_rev);
      const_outputs = List.rev b.consts_rev;
      n_latches;
      levels_memo = None }
end

(* ------------------------------------------------------------------ *)
(* Decomposition                                                       *)
(* ------------------------------------------------------------------ *)

type style =
  | Balanced
  | Left_skew
  | Right_skew

(* Re-associate n-ary AND/OR chains per the requested style. The
   expressions reaching us are binary trees; flatten same-operator
   chains and rebuild. *)
let rec restyle style (e : Bexpr.t) : Bexpr.t =
  let rebuild op operands =
    let operands = List.map (restyle style) operands in
    match style, operands with
    | _, [] -> assert false
    | _, [ x ] -> x
    | Balanced, operands ->
      let rec reduce = function
        | [ x ] -> x
        | xs ->
          let rec pair = function
            | [] -> []
            | [ x ] -> [ x ]
            | a :: b :: rest -> op a b :: pair rest
          in
          reduce (pair xs)
      in
      reduce operands
    | Left_skew, first :: rest -> List.fold_left op first rest
    | Right_skew, operands ->
      let rec fold = function
        | [ x ] -> x
        | x :: rest -> op x (fold rest)
        | [] -> assert false
      in
      fold operands
  in
  match e with
  | Bexpr.Const _ | Bexpr.Var _ -> e
  | Bexpr.Not a -> Bexpr.Not (restyle style a)
  | Bexpr.Xor (a, b) -> Bexpr.Xor (restyle style a, restyle style b)
  | Bexpr.And _ ->
    let rec collect = function
      | Bexpr.And (a, b) -> collect a @ collect b
      | e -> [ e ]
    in
    rebuild (fun a b -> Bexpr.And (a, b)) (collect e)
  | Bexpr.Or _ ->
    let rec collect = function
      | Bexpr.Or (a, b) -> collect a @ collect b
      | e -> [ e ]
    in
    rebuild (fun a b -> Bexpr.Or (a, b)) (collect e)

(* Signals during decomposition: a subject literal or a constant.
   Literals carry a phase so De Morgan transfers inversions to where
   they are absorbed by NAND inputs. *)
type signal =
  | Sig_const of bool
  | Sig_lit of int * bool   (* node, inverted? *)

let neg = function
  | Sig_const b -> Sig_const (not b)
  | Sig_lit (n, ph) -> Sig_lit (n, not ph)

let materialize b = function
  | Sig_const _ -> invalid_arg "Subject: constant feeds a gate"
  | Sig_lit (n, false) -> n
  | Sig_lit (n, true) -> Builder.inv b n

(* NAND of two signals with constant folding:
   nand(0, _) = 1;  nand(1, x) = !x. *)
let sig_nand b x y =
  match x, y with
  | Sig_const false, _ | _, Sig_const false -> Sig_const true
  | Sig_const true, s | s, Sig_const true -> neg s
  | (Sig_lit _ as sx), (Sig_lit _ as sy) ->
    Sig_lit (Builder.nand b (materialize b sx) (materialize b sy), false)

let rec build b env complement (e : Bexpr.t) : signal =
  match e with
  | Bexpr.Const c -> Sig_const (c <> complement)
  | Bexpr.Var i ->
    let s = env i in
    if complement then neg s else s
  | Bexpr.Not a -> build b env (not complement) a
  | Bexpr.And (x, y) ->
    let n = sig_nand b (build b env false x) (build b env false y) in
    if complement then n else neg n
  | Bexpr.Or (x, y) ->
    let n = sig_nand b (build b env true x) (build b env true y) in
    if complement then neg n else n
  | Bexpr.Xor (x, y) -> begin
    let sx = build b env false x in
    let sy = build b env false y in
    match sx, sy with
    | Sig_const c, s | s, Sig_const c ->
      let r = if c then neg s else s in
      if complement then neg r else r
    | Sig_lit _, Sig_lit _ ->
      (* SOP form nand(nand(x,!y), nand(!x,y)) — the shape SIS-style
         SOP decomposition produces. (The shared four-NAND form is
         smaller but its internal fanout blocks larger tree-pattern
         matches under the one-to-one match classes.) *)
      let r = sig_nand b (sig_nand b sx (neg sy)) (sig_nand b (neg sx) sy) in
      if complement then neg r else r
  end

let of_network ?(style = Balanced) net =
  let b = Builder.create ~hint:(4 * Network.num_nodes net) () in
  let signal_of = Array.make (Network.num_nodes net) (Sig_const false) in
  (* Subject PI order contract: network PIs in declaration order,
     then latch outputs in latch order (consumers such as simulation
     and equivalence checking rely on this). *)
  List.iter
    (fun id ->
      let n = Network.node net id in
      signal_of.(id) <- Sig_lit (Builder.pi b n.Network.name, false))
    (Network.pis net);
  List.iter
    (fun l ->
      let n = Network.node net l.Network.latch_output in
      signal_of.(l.Network.latch_output) <-
        Sig_lit (Builder.pi b n.Network.name, false))
    (Network.latches net);
  List.iter
    (fun id ->
      let n = Network.node net id in
      match n.Network.kind with
      | Network.Pi | Network.Latch_out -> ()
      | Network.Logic ->
        let env i = signal_of.(n.Network.fanins.(i)) in
        signal_of.(id) <- build b env false (restyle style n.Network.expr))
    (Network.topological_order net);
  let emit name id =
    match signal_of.(id) with
    | Sig_const c -> Builder.const_output b name c
    | Sig_lit _ as s -> Builder.output b name (materialize b s)
  in
  List.iter (fun (po_name, id) -> emit po_name id) (Network.pos net);
  List.iteri
    (fun i l -> emit (Printf.sprintf "$latch_in%d" i) l.Network.latch_input)
    (Network.latches net);
  Builder.finish ~n_latches:(List.length (Network.latches net)) b

(* ------------------------------------------------------------------ *)
(* Derived per-node arrays                                             *)
(* ------------------------------------------------------------------ *)

(* The graph is immutable once built, so the O(n) level sweep runs at
   most once per graph and is shared by [level_ranges], [by_level],
   [depth] and every labeler. The memo write is a single pointer store
   of an array that is never mutated afterwards, so a racing recompute
   from another domain is redundant work, not a hazard. *)
let levels g =
  match g.levels_memo with
  | Some lv -> lv
  | None ->
    let lv = Array.make g.n 0 in
    for i = 0 to g.n - 1 do
      let f0 = Bigarray.Array1.unsafe_get g.fanin0 i in
      if f0 >= 0 then begin
        let f1 = Bigarray.Array1.unsafe_get g.fanin1 i in
        let below =
          if f1 < 0 then Array.unsafe_get lv f0
          else max (Array.unsafe_get lv f0) (Array.unsafe_get lv f1)
        in
        Array.unsafe_set lv i (below + 1)
      end
    done;
    g.levels_memo <- Some lv;
    lv

let fanout_counts g =
  let counts = Array.make g.n 0 in
  for i = 0 to g.n - 1 do
    let f0 = Bigarray.Array1.unsafe_get g.fanin0 i in
    if f0 >= 0 then begin
      counts.(f0) <- counts.(f0) + 1;
      let f1 = Bigarray.Array1.unsafe_get g.fanin1 i in
      if f1 >= 0 then counts.(f1) <- counts.(f1) + 1
    end
  done;
  Array.iter (fun (_, node) -> counts.(node) <- counts.(node) + 1) g.outputs;
  counts

let depth g =
  let lv = levels g in
  Array.fold_left (fun acc (_, node) -> max acc lv.(node)) 0 g.outputs

let level_ranges g =
  let lv = levels g in
  let maxl = Array.fold_left max 0 lv in
  let starts = Array.make (maxl + 2) 0 in
  Array.iter (fun l -> starts.(l + 1) <- starts.(l + 1) + 1) lv;
  for l = 1 to maxl + 1 do
    starts.(l) <- starts.(l) + starts.(l - 1)
  done;
  let order = Array.make g.n 0 in
  let fill = Array.copy starts in
  (* Counting sort in node order: stable, so ids ascend within each
     level. *)
  Array.iteri
    (fun node l ->
      order.(fill.(l)) <- node;
      fill.(l) <- fill.(l) + 1)
    lv;
  (order, starts)

let by_level g =
  let order, starts = level_ranges g in
  Array.init
    (Array.length starts - 1)
    (fun l -> Array.sub order starts.(l) (starts.(l + 1) - starts.(l)))

let pi_ids g = Array.to_list g.pi_nodes

(* [pi_nodes] ascends: the builder numbers nodes in creation order. *)
let pi_name g id =
  let rec search lo hi =
    if lo >= hi then invalid_arg "Subject.pi_name: not a PI"
    else
      let mid = (lo + hi) / 2 in
      let m = g.pi_nodes.(mid) in
      if m = id then g.pi_names.(mid)
      else if m < id then search (mid + 1) hi
      else search lo mid
  in
  search 0 g.num_pis

let eval g assignment =
  if Array.length assignment < g.num_pis then invalid_arg "Subject.eval";
  let value = Array.make g.n false in
  Array.iteri (fun order id -> value.(id) <- assignment.(order)) g.pi_nodes;
  for i = 0 to g.n - 1 do
    let f0 = Bigarray.Array1.unsafe_get g.fanin0 i in
    if f0 >= 0 then begin
      let f1 = Bigarray.Array1.unsafe_get g.fanin1 i in
      value.(i) <- not (value.(f0) && (f1 < 0 || value.(f1)))
    end
  done;
  Array.to_list (Array.map (fun (name, node) -> (name, value.(node))) g.outputs)
  @ g.const_outputs

let gate_counts g =
  let nands = ref 0 and invs = ref 0 in
  for i = 0 to g.n - 1 do
    if Bigarray.Array1.unsafe_get g.fanin0 i >= 0 then
      if Bigarray.Array1.unsafe_get g.fanin1 i >= 0 then incr nands
      else incr invs
  done;
  (!nands, !invs)

let summary g =
  let nands, invs = gate_counts g in
  Printf.sprintf "pi=%d out=%d nand=%d inv=%d depth=%d" g.num_pis
    (Array.length g.outputs) nands invs (depth g)

let stats g = "subject: " ^ summary g

let arena_stats g =
  Printf.sprintf "arena: %s (%d KiB off-heap)" (summary g) (mem_bytes g / 1024)

let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph subject {\n  rankdir=LR;\n";
  for i = 0 to g.n - 1 do
    let label, shape =
      match kind g i with
      | Spi -> (pi_name g i, "triangle")
      | Snand _ -> ("nand", "ellipse")
      | Sinv _ -> ("inv", "diamond")
    in
    Buffer.add_string buf
      (Printf.sprintf "  s%d [label=\"%s:%d\" shape=%s];\n" i label i shape);
    List.iter
      (fun f -> Buffer.add_string buf (Printf.sprintf "  s%d -> s%d;\n" f i))
      (fanins g i)
  done;
  Array.iter
    (fun (name, node) ->
      Buffer.add_string buf
        (Printf.sprintf "  o_%s [label=%S shape=invtriangle];\n  s%d -> o_%s;\n"
           name name node name))
    g.outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
