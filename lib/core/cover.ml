open Dagmap_genlib
open Dagmap_subject

type choice = {
  gate : int -> Gate.t;
  inputs : int -> (int -> int -> unit) -> unit;
  covers : int -> int array;
  constant : int -> bool option;
}

let no_constants _ = None

let walk g c =
  let n = Subject.num_nodes g in
  let needed = Bytes.make n '\000' in
  let fifo = Array.make (max 1 n) 0 in
  let tail = ref 0 in
  let require node =
    if
      Bytes.unsafe_get needed node = '\000'
      && (not (Subject.is_pi g node))
      && c.constant node = None
    then begin
      Bytes.unsafe_set needed node '\001';
      fifo.(!tail) <- node;
      incr tail
    end
  in
  let require_pin _ node = require node in
  Array.iter (fun (_, node) -> require node) g.Subject.outputs;
  let head = ref 0 in
  while !head < !tail do
    c.inputs fifo.(!head) require_pin;
    incr head
  done;
  Array.init !tail (fun i -> fifo.(!tail - 1 - i))

let netlist g c order =
  let index = Array.make (max 1 (Subject.num_nodes g)) (-1) in
  Array.iteri (fun i node -> index.(node) <- i) order;
  let driver_of node =
    match c.constant node with
    | Some b -> Netlist.D_const b
    | None ->
      if Subject.is_pi g node then Netlist.D_pi node
      else Netlist.D_gate index.(node)
  in
  let instances =
    Array.mapi
      (fun i node ->
        let gate = c.gate node in
        let inputs = Array.make (Gate.num_pins gate) (Netlist.D_const false) in
        c.inputs node (fun pin driver -> inputs.(pin) <- driver_of driver);
        { Netlist.inst_id = i; gate; inputs; subject_root = node;
          covers = c.covers node })
      order
  in
  let outputs =
    List.map (fun (name, node) -> (name, driver_of node))
      (Array.to_list g.Subject.outputs)
    @ List.map
        (fun (name, b) -> (name, Netlist.D_const b))
        g.Subject.const_outputs
  in
  { Netlist.source = g; instances; outputs }
