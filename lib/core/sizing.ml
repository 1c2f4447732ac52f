open Dagmap_genlib

type sized = {
  netlist : Netlist.t;
  sizes : float array;
  sized_area : float;
}

(* Output load of every instance: sum of sink input pin loads plus
   output_load per primary output driven. Sink input capacitance is
   taken at nominal size — sizing is a one-shot post-pass, as in the
   flow the paper describes (growing sink capacitance with size would
   couple the problem; the validation experiment only needs the
   first-order effect). *)
let instance_loads nl output_load =
  let n = Array.length nl.Netlist.instances in
  let loads = Array.make n 0.0 in
  Array.iteri
    (fun _sink inst ->
      Array.iteri
        (fun pin d ->
          match d with
          | Netlist.D_gate j ->
            loads.(j) <-
              loads.(j) +. inst.Netlist.gate.Gate.pins.(pin).Gate.input_load
          | Netlist.D_pi _ | Netlist.D_const _ -> ())
        inst.Netlist.inputs)
    nl.Netlist.instances;
  List.iter
    (fun (_, d) ->
      match d with
      | Netlist.D_gate j -> loads.(j) <- loads.(j) +. output_load
      | Netlist.D_pi _ | Netlist.D_const _ -> ())
    nl.Netlist.outputs;
  loads

let arc_delay gate pin ~size ~load =
  let p = gate.Gate.pins.(pin) in
  let rise = p.Gate.rise_block +. (p.Gate.rise_fanout /. size *. load) in
  let fall = p.Gate.fall_block +. (p.Gate.fall_fanout /. size *. load) in
  Float.max rise fall

let loaded_delay ?sizes ?(output_load = 1.0) nl =
  let n = Array.length nl.Netlist.instances in
  let sizes = match sizes with Some s -> s | None -> Array.make n 1.0 in
  let loads = instance_loads nl output_load in
  let arrival = Array.make n 0.0 in
  Array.iter
    (fun i ->
      let inst = nl.Netlist.instances.(i) in
      let worst = ref 0.0 in
      Array.iteri
        (fun pin d ->
          let input_arrival =
            match d with
            | Netlist.D_gate j -> arrival.(j)
            | Netlist.D_pi _ | Netlist.D_const _ -> 0.0
          in
          let d_arc =
            arc_delay inst.Netlist.gate pin ~size:sizes.(i) ~load:loads.(i)
          in
          worst := Float.max !worst (input_arrival +. d_arc))
        inst.Netlist.inputs;
      arrival.(i) <- !worst)
    (Netlist.topological_order nl);
  List.fold_left
    (fun acc (_, d) ->
      match d with
      | Netlist.D_gate j -> Float.max acc arrival.(j)
      | Netlist.D_pi _ | Netlist.D_const _ -> acc)
    0.0 nl.Netlist.outputs

let size_to_target ?(tolerance = 0.15) ?(max_iterations = 1) ?(max_size = 16.0)
    nl =
  ignore max_iterations;
  let n = Array.length nl.Netlist.instances in
  let sizes = Array.make n 1.0 in
  let loads = instance_loads nl 1.0 in
  Array.iteri
    (fun i inst ->
      let gate = inst.Netlist.gate in
      (* Required size so each arc's penalty stays within
         tolerance * block delay. *)
      let needed = ref 1.0 in
      Array.iter
        (fun (p : Gate.pin) ->
          let budget_rise = tolerance *. Float.max p.Gate.rise_block 1e-6 in
          let budget_fall = tolerance *. Float.max p.Gate.fall_block 1e-6 in
          if p.Gate.rise_fanout > 0.0 then
            needed :=
              Float.max !needed (p.Gate.rise_fanout *. loads.(i) /. budget_rise);
          if p.Gate.fall_fanout > 0.0 then
            needed :=
              Float.max !needed (p.Gate.fall_fanout *. loads.(i) /. budget_fall))
        gate.Gate.pins;
      sizes.(i) <- Float.min max_size !needed)
    nl.Netlist.instances;
  let sized_area =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun i inst -> inst.Netlist.gate.Gate.area *. sizes.(i))
         nl.Netlist.instances)
  in
  { netlist = nl; sizes; sized_area }
