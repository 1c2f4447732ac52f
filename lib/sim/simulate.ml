open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

let num_inputs_network net =
  List.length (Network.pis net) + List.length (Network.latches net)

let rec eval_expr (values : int64 array) (e : Bexpr.t) : int64 =
  match e with
  | Bexpr.Const true -> -1L
  | Bexpr.Const false -> 0L
  | Bexpr.Var i -> values.(i)
  | Bexpr.Not a -> Int64.lognot (eval_expr values a)
  | Bexpr.And (a, b) -> Int64.logand (eval_expr values a) (eval_expr values b)
  | Bexpr.Or (a, b) -> Int64.logor (eval_expr values a) (eval_expr values b)
  | Bexpr.Xor (a, b) -> Int64.logxor (eval_expr values a) (eval_expr values b)

let network net inputs =
  if Array.length inputs < num_inputs_network net then
    invalid_arg "Simulate.network: not enough input words";
  let value = Array.make (Network.num_nodes net) 0L in
  List.iteri (fun k id -> value.(id) <- inputs.(k)) (Network.pis net);
  let n_pis = List.length (Network.pis net) in
  List.iteri
    (fun k l -> value.(l.Network.latch_output) <- inputs.(n_pis + k))
    (Network.latches net);
  List.iter
    (fun id ->
      let n = Network.node net id in
      match n.Network.kind with
      | Network.Pi | Network.Latch_out -> ()
      | Network.Logic ->
        let local = Array.map (fun f -> value.(f)) n.Network.fanins in
        value.(id) <- eval_expr local n.Network.expr)
    (Network.topological_order net);
  List.map (fun (name, id) -> (name, value.(id))) (Network.pos net)
  @ List.mapi
      (fun i l -> (Printf.sprintf "$latch_in%d" i, value.(l.Network.latch_input)))
      (Network.latches net)

(* The staged simulators below keep every 64-lane word in one
   [Bytes] buffer, addressed by slot, so a round reads and writes
   unboxed words and allocates nothing but its output list. *)
let[@inline] get vals slot = Bytes.get_int64_ne vals (slot lsl 3)
let[@inline] set vals slot w = Bytes.set_int64_ne vals (slot lsl 3) w

let read_outputs vals names slots tail =
  let acc = ref tail in
  for o = Array.length names - 1 downto 0 do
    acc := (names.(o), get vals slots.(o)) :: !acc
  done;
  !acc

let subject g =
  let n = Subject.num_nodes g in
  let pis = Array.of_list (Subject.pi_ids g) in
  (* Node [i] lives in slot [i]. An inverter is a NAND with both
     fanins equal; a PI has fanin [-1]. *)
  let fa = Array.make n (-1) and fb = Array.make n (-1) in
  Array.iteri
    (fun i k ->
      match k with
      | Subject.Spi -> ()
      | Subject.Sinv x ->
        fa.(i) <- x;
        fb.(i) <- x
      | Subject.Snand (x, y) ->
        fa.(i) <- x;
        fb.(i) <- y)
    g.Subject.kinds;
  let outs = Array.of_list g.Subject.outputs in
  let out_names = Array.map (fun o -> o.Subject.out_name) outs in
  let out_slots = Array.map (fun o -> o.Subject.out_node) outs in
  let const_tail =
    List.map
      (fun (name, b) -> (name, if b then -1L else 0L))
      g.Subject.const_outputs
  in
  let vals = Bytes.make (8 * n) '\000' in
  fun inputs ->
    if Array.length inputs < Array.length pis then
      invalid_arg "Simulate.subject: not enough input words";
    for k = 0 to Array.length pis - 1 do
      set vals pis.(k) inputs.(k)
    done;
    for i = 0 to n - 1 do
      let a = fa.(i) in
      if a >= 0 then
        set vals i (Int64.lognot (Int64.logand (get vals a) (get vals fb.(i))))
    done;
    read_outputs vals out_names out_slots const_tail

(* Netlist slots: [slot_false] and [slot_true] hold the constants,
   then come the PIs in subject PI order, the instances in
   topological order, and the scratch registers of the gate
   programs. *)
let slot_false = 0
let slot_true = 1

(* A gate program is straight-line code over value slots, four ints
   per op: [opcode; dst; a; b]. Opcodes: 0 NOT a, 1 AND, 2 OR, 3 XOR,
   4 NAND, 5 NOR, 6 XNOR. Scratch registers [0 .. pins-1] receive the
   instance's pin words; the ops write later registers, and [result]
   is the slot holding the gate output. *)
type program = {
  pins : int;
  ops : int array;
  result : int;
  registers : int;
}

let compile_gate ~scratch (gate : Gate.t) =
  let ops = ref [] and next = ref (Gate.num_pins gate) in
  let emit opcode a b =
    let dst = scratch + !next in
    incr next;
    ops := b :: a :: dst :: opcode :: !ops;
    dst
  in
  let rec operand = function
    | Bexpr.Const b -> if b then slot_true else slot_false
    | Bexpr.Var p -> scratch + p
    | Bexpr.Not (Bexpr.And (a, b)) -> binary 4 a b
    | Bexpr.Not (Bexpr.Or (a, b)) -> binary 5 a b
    | Bexpr.Not (Bexpr.Xor (a, b)) -> binary 6 a b
    | Bexpr.Not a ->
      let x = operand a in
      emit 0 x x
    | Bexpr.And (a, b) -> binary 1 a b
    | Bexpr.Or (a, b) -> binary 2 a b
    | Bexpr.Xor (a, b) -> binary 3 a b
  and binary opcode a b =
    let x = operand a in
    let y = operand b in
    emit opcode x y
  in
  let result = operand gate.Gate.expr in
  { pins = Gate.num_pins gate;
    ops = Array.of_list (List.rev !ops);
    result;
    registers = !next }

(* Distinct gates are distinct records: instances of one library gate
   share its record, so each compiles once. *)
module Gate_tbl = Hashtbl.Make (struct
  type t = Gate.t

  let equal = ( == )
  let hash (g : Gate.t) = Hashtbl.hash g.Gate.gate_name
end)

let netlist nl =
  let pis = Subject.pi_ids nl.Netlist.source in
  let n_pis = List.length pis in
  let pi_slot = Hashtbl.create (2 * n_pis + 1) in
  List.iteri (fun k id -> Hashtbl.replace pi_slot id (2 + k)) pis;
  let order = Netlist.topological_order nl in
  let n = Array.length order in
  let base = 2 + n_pis in
  let pos = Array.make n 0 in
  Array.iteri (fun t i -> pos.(i) <- t) order;
  let slot_of = function
    | Netlist.D_const b -> if b then slot_true else slot_false
    | Netlist.D_pi id -> (
      match Hashtbl.find_opt pi_slot id with
      | Some s -> s
      | None ->
        invalid_arg
          (Printf.sprintf "Simulate.netlist: D_pi %d is not a subject PI" id))
    | Netlist.D_gate j -> base + pos.(j)
  in
  let scratch = base + n in
  (* Programs are numbered in order of first use. *)
  let ids = Gate_tbl.create 16 and programs = ref [] in
  let program_of gate =
    match Gate_tbl.find_opt ids gate with
    | Some id -> id
    | None ->
      let id = Gate_tbl.length ids in
      Gate_tbl.add ids gate id;
      programs := compile_gate ~scratch gate :: !programs;
      id
  in
  let total_pins =
    Array.fold_left
      (fun acc inst -> acc + Array.length inst.Netlist.inputs)
      0 nl.Netlist.instances
  in
  let prog_of = Array.make n 0 and pin_slot = Array.make total_pins 0 in
  let p = ref 0 in
  Array.iteri
    (fun t i ->
      let inst = nl.Netlist.instances.(i) in
      if Array.length inst.Netlist.inputs <> Gate.num_pins inst.Netlist.gate
      then
        invalid_arg
          (Printf.sprintf "Simulate.netlist: instance %d has %d inputs for %s"
             i
             (Array.length inst.Netlist.inputs)
             inst.Netlist.gate.Gate.gate_name);
      prog_of.(t) <- program_of inst.Netlist.gate;
      Array.iter
        (fun d ->
          pin_slot.(!p) <- slot_of d;
          incr p)
        inst.Netlist.inputs)
    order;
  let programs = Array.of_list (List.rev !programs) in
  let registers =
    Array.fold_left (fun acc prog -> max acc prog.registers) 0 programs
  in
  let out_names = Array.of_list (List.map fst nl.Netlist.outputs) in
  let out_slots =
    Array.of_list (List.map (fun (_, d) -> slot_of d) nl.Netlist.outputs)
  in
  let vals = Bytes.make (8 * (scratch + registers)) '\000' in
  set vals slot_true (-1L);
  fun inputs ->
    if Array.length inputs < n_pis then
      invalid_arg "Simulate.netlist: not enough input words";
    for k = 0 to n_pis - 1 do
      set vals (2 + k) inputs.(k)
    done;
    let p = ref 0 in
    for t = 0 to n - 1 do
      let prog = programs.(prog_of.(t)) in
      for q = 0 to prog.pins - 1 do
        set vals (scratch + q) (get vals pin_slot.(!p + q))
      done;
      p := !p + prog.pins;
      let ops = prog.ops in
      for o = 0 to (Array.length ops / 4) - 1 do
        let pc = 4 * o in
        let a = get vals ops.(pc + 2) and b = get vals ops.(pc + 3) in
        set vals ops.(pc + 1)
          (match ops.(pc) with
           | 0 -> Int64.lognot a
           | 1 -> Int64.logand a b
           | 2 -> Int64.logor a b
           | 3 -> Int64.logxor a b
           | 4 -> Int64.lognot (Int64.logand a b)
           | 5 -> Int64.lognot (Int64.logor a b)
           | _ -> Int64.lognot (Int64.logxor a b))
      done;
      set vals (base + t) (get vals prog.result)
    done;
    read_outputs vals out_names out_slots []

let random_words st n =
  Array.init n (fun _ ->
      let hi = Int64.of_int (Random.State.bits st) in
      let mid = Int64.of_int (Random.State.bits st) in
      let lo = Int64.of_int (Random.State.bits st) in
      Int64.logxor
        (Int64.shift_left hi 40)
        (Int64.logxor (Int64.shift_left mid 20) lo))
