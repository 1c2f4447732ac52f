open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject

type driver =
  | D_pi of int
  | D_gate of int
  | D_const of bool

type instance = {
  inst_id : int;
  gate : Gate.t;
  inputs : driver array;
  subject_root : int;
  covers : int array;
}

type t = {
  source : Subject.t;
  instances : instance array;
  outputs : (string * driver) list;
}

let area nl =
  Array.fold_left (fun acc i -> acc +. i.gate.Gate.area) 0.0 nl.instances

let num_gates nl = Array.length nl.instances

(* Instances are not necessarily stored topologically (cover
   construction emits them outputs-first), so order them explicitly.
   Depth-first over fanins with an explicit stack: instance chains can
   be deeper than the OCaml call stack allows. Entry [2i] pre-visits
   instance [i]: it pushes the post-visit entry [2i+1], then the
   unvisited fanins in pin order, so an instance lands in the order
   only after all its fanins. A gray (pre- but not post-visited)
   fanin seen while expanding a node is a back edge, i.e. a cycle. *)
let topological_order nl =
  let n = Array.length nl.instances in
  let state = Array.make n 0 in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let stack = Stack.create () in
  for root = 0 to n - 1 do
    if state.(root) = 0 then begin
      Stack.push (2 * root) stack;
      while not (Stack.is_empty stack) do
        let e = Stack.pop stack in
        let i = e lsr 1 in
        if e land 1 = 1 then begin
          state.(i) <- 2;
          order.(!filled) <- i;
          incr filled
        end
        else if state.(i) = 0 then begin
          state.(i) <- 1;
          Stack.push ((2 * i) + 1) stack;
          Array.iter
            (function
              | D_gate j ->
                if state.(j) = 1 then failwith "Netlist: instance cycle"
                else if state.(j) = 0 then Stack.push (2 * j) stack
              | D_pi _ | D_const _ -> ())
            nl.instances.(i).inputs
        end
      done
    end
  done;
  order

let arrival_times nl =
  let arrival = Array.make (Array.length nl.instances) 0.0 in
  Array.iter
    (fun i ->
      let inst = nl.instances.(i) in
      let worst = ref 0.0 in
      Array.iteri
        (fun pin d ->
          let input_arrival =
            match d with
            | D_pi _ | D_const _ -> 0.0
            | D_gate j -> arrival.(j)
          in
          worst :=
            Float.max !worst (input_arrival +. Gate.intrinsic_delay inst.gate pin))
        inst.inputs;
      arrival.(i) <- !worst)
    (topological_order nl);
  arrival

let driver_arrival arrival = function
  | D_pi _ | D_const _ -> 0.0
  | D_gate j -> arrival.(j)

let output_arrivals nl =
  let arrival = arrival_times nl in
  List.map (fun (name, d) -> (name, driver_arrival arrival d)) nl.outputs

let delay nl =
  List.fold_left (fun acc (_, a) -> Float.max acc a) 0.0 (output_arrivals nl)

let gate_histogram nl =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let name = i.gate.Gate.gate_name in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    nl.instances;
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let duplication nl =
  let distinct = Hashtbl.create 64 in
  let total = ref 0 in
  Array.iter
    (fun i ->
      total := !total + Array.length i.covers;
      Array.iter (fun node -> Hashtbl.replace distinct node ()) i.covers)
    nl.instances;
  !total - Hashtbl.length distinct

let eval nl assignment =
  let pi_value = Hashtbl.create 16 in
  List.iteri
    (fun order id -> Hashtbl.replace pi_value id assignment.(order))
    (Subject.pi_ids nl.source);
  let value = Array.make (Array.length nl.instances) false in
  let driver_value = function
    | D_const b -> b
    | D_pi id -> Hashtbl.find pi_value id
    | D_gate j -> value.(j)
  in
  Array.iter
    (fun i ->
      let inst = nl.instances.(i) in
      let inputs = Array.map driver_value inst.inputs in
      value.(i) <- Truth.eval inst.gate.Gate.func inputs)
    (topological_order nl);
  List.map (fun (name, d) -> (name, driver_value d)) nl.outputs

let max_fanout nl =
  let counts = Hashtbl.create 64 in
  let bump d =
    match d with
    | D_const _ -> ()
    | D_pi _ | D_gate _ ->
      Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d))
  in
  Array.iter (fun i -> Array.iter bump i.inputs) nl.instances;
  List.iter (fun (_, d) -> bump d) nl.outputs;
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0

let lint nl =
  let issues = ref [] in
  let report fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let n = Array.length nl.instances in
  let pi_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace pi_set id ()) (Subject.pi_ids nl.source);
  let check_driver context = function
    | D_const _ -> ()
    | D_pi id ->
      if not (Hashtbl.mem pi_set id) then
        report "%s: D_pi %d is not a subject PI" context id
    | D_gate j ->
      if j < 0 || j >= n then report "%s: D_gate %d out of range" context j
  in
  Array.iteri
    (fun idx inst ->
      if inst.inst_id <> idx then
        report "instance %d: inst_id %d does not match its index" idx
          inst.inst_id;
      if Array.length inst.inputs <> Gate.num_pins inst.gate then
        report "instance %d (%s): %d inputs for a %d-pin gate" idx
          inst.gate.Gate.gate_name
          (Array.length inst.inputs)
          (Gate.num_pins inst.gate);
      Array.iter (check_driver (Printf.sprintf "instance %d" idx)) inst.inputs)
    nl.instances;
  List.iter (fun (name, d) -> check_driver ("output " ^ name) d) nl.outputs;
  (* Cycle check only once the drivers are known to be in range. *)
  if !issues = [] then begin
    match topological_order nl with
    | (_ : int array) -> ()
    | exception Failure m -> report "%s" m
  end;
  List.rev !issues

let validate nl =
  match lint nl with [] -> () | issue :: _ -> failwith issue

let pp_report ppf nl =
  Format.fprintf ppf "gates=%d area=%.0f delay=%.2f duplicated=%d@\n"
    (num_gates nl) (area nl) (delay nl) (duplication nl);
  List.iter
    (fun (name, c) -> Format.fprintf ppf "  %-12s %d@\n" name c)
    (gate_histogram nl)
