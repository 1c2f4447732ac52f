open Dagmap_genlib
open Dagmap_core

type path_element = {
  pe_instance : int;
  pe_gate : string;
  pe_through_pin : int;
  pe_arrival : float;
}

type report = {
  arrival : float array;
  required : float array;
  slack : float array;
  worst_delay : float;
  critical_output : string;
  critical_path : path_element list;
}

let analyze ?required_time nl =
  let n = Array.length nl.Netlist.instances in
  let order = Netlist.topological_order nl in
  let arrival = Array.make n 0.0 in
  (* Arrival pass, remembering each instance's critical input pin. *)
  let critical_pin = Array.make n (-1) in
  Array.iter
    (fun i ->
      let inst = nl.Netlist.instances.(i) in
      Array.iteri
        (fun pin d ->
          let input_arrival =
            match d with
            | Netlist.D_pi _ | Netlist.D_const _ -> 0.0
            | Netlist.D_gate j -> arrival.(j)
          in
          let a = input_arrival +. Gate.intrinsic_delay inst.Netlist.gate pin in
          if a > arrival.(i) then begin
            arrival.(i) <- a;
            critical_pin.(i) <- pin
          end)
        inst.Netlist.inputs)
    order;
  let output_arrival = function
    | Netlist.D_pi _ | Netlist.D_const _ -> 0.0
    | Netlist.D_gate j -> arrival.(j)
  in
  let worst_delay, critical_output =
    List.fold_left
      (fun (wd, wo) (name, d) ->
        let a = output_arrival d in
        if a > wd then (a, name) else (wd, wo))
      (0.0, "<none>") nl.Netlist.outputs
  in
  let rt = Option.value ~default:worst_delay required_time in
  (* Required pass in reverse topological order. *)
  let required = Array.make n infinity in
  List.iter
    (fun (_, d) ->
      match d with
      | Netlist.D_gate j -> required.(j) <- Float.min required.(j) rt
      | Netlist.D_pi _ | Netlist.D_const _ -> ())
    nl.Netlist.outputs;
  for t = n - 1 downto 0 do
    let i = order.(t) in
    let inst = nl.Netlist.instances.(i) in
    Array.iteri
      (fun pin d ->
        match d with
        | Netlist.D_gate j ->
          required.(j) <-
            Float.min required.(j)
              (required.(i) -. Gate.intrinsic_delay inst.Netlist.gate pin)
        | Netlist.D_pi _ | Netlist.D_const _ -> ())
      inst.Netlist.inputs
  done;
  let slack = Array.init n (fun i -> required.(i) -. arrival.(i)) in
  (* Critical path: walk back from the worst output through critical
     pins. *)
  let critical_path =
    let rec walk acc d =
      match d with
      | Netlist.D_pi _ | Netlist.D_const _ -> acc
      | Netlist.D_gate j ->
        let inst = nl.Netlist.instances.(j) in
        let pin = critical_pin.(j) in
        let element =
          { pe_instance = j;
            pe_gate = inst.Netlist.gate.Gate.gate_name;
            pe_through_pin = pin;
            pe_arrival = arrival.(j) }
        in
        if pin < 0 then element :: acc
        else walk (element :: acc) inst.Netlist.inputs.(pin)
    in
    let worst_driver =
      List.fold_left
        (fun best (_, d) ->
          match best with
          | Some (a, _) when output_arrival d <= a -> best
          | _ -> Some (output_arrival d, d))
        None nl.Netlist.outputs
    in
    match worst_driver with None -> [] | Some (_, d) -> walk [] d
  in
  { arrival; required; slack; worst_delay; critical_output; critical_path }

let num_critical report threshold =
  Array.fold_left
    (fun acc s -> if s < threshold then acc + 1 else acc)
    0 report.slack

let pp_path ppf report =
  Format.fprintf ppf "critical output %s, delay %.2f@\n" report.critical_output
    report.worst_delay;
  List.iter
    (fun pe ->
      Format.fprintf ppf "  inst %d %-12s via pin %d  arrival %.2f@\n"
        pe.pe_instance pe.pe_gate pe.pe_through_pin pe.pe_arrival)
    report.critical_path
