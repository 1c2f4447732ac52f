open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

(* Verilog identifier sanitation with collision avoidance. *)
let keywords =
  [ "module"; "endmodule"; "input"; "output"; "wire"; "reg"; "assign";
    "always"; "begin"; "end"; "if"; "else"; "case"; "endcase"; "posedge";
    "negedge"; "or"; "and"; "not"; "xor"; "nand"; "nor"; "buf" ]

type namer = {
  table : (string, string) Hashtbl.t;   (* original -> sanitized *)
  used : (string, unit) Hashtbl.t;
}

let new_namer () = { table = Hashtbl.create 64; used = Hashtbl.create 64 }

let sanitize name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  let s = Buffer.contents buf in
  let s = if s = "" then "n" else s in
  let s =
    match s.[0] with
    | '0' .. '9' | '$' -> "n" ^ s
    | _ -> s
  in
  if List.mem s keywords then s ^ "_" else s

let ident nm name =
  match Hashtbl.find_opt nm.table name with
  | Some s -> s
  | None ->
    let base = sanitize name in
    let rec unique candidate k =
      if Hashtbl.mem nm.used candidate then
        unique (Printf.sprintf "%s_%d" base k) (k + 1)
      else candidate
    in
    let s = unique base 0 in
    Hashtbl.replace nm.used s ();
    Hashtbl.replace nm.table name s;
    s

(* Render a Bexpr over given operand strings. *)
let rec render_expr operands (e : Bexpr.t) =
  match e with
  | Bexpr.Const true -> "1'b1"
  | Bexpr.Const false -> "1'b0"
  | Bexpr.Var i -> operands i
  | Bexpr.Not a -> Printf.sprintf "~%s" (render_atom operands a)
  | Bexpr.And (a, b) ->
    Printf.sprintf "%s & %s" (render_atom operands a) (render_atom operands b)
  | Bexpr.Or (a, b) ->
    Printf.sprintf "%s | %s" (render_atom operands a) (render_atom operands b)
  | Bexpr.Xor (a, b) ->
    Printf.sprintf "%s ^ %s" (render_atom operands a) (render_atom operands b)

and render_atom operands e =
  match e with
  | Bexpr.Const _ | Bexpr.Var _ -> render_expr operands e
  | Bexpr.Not a -> Printf.sprintf "~%s" (render_atom operands a)
  | Bexpr.And _ | Bexpr.Or _ | Bexpr.Xor _ ->
    Printf.sprintf "(%s)" (render_expr operands e)

let write_network ?(module_name = "top") net =
  let nm = new_namer () in
  let buf = Buffer.create 4096 in
  let node_name id = ident nm (Network.node net id).Network.name in
  let pi_names = List.map node_name (Network.pis net) in
  let po_names = List.map (fun (po, _) -> ident nm ("po$" ^ po)) (Network.pos net) in
  let has_latches = Network.latches net <> [] in
  let ports =
    (if has_latches then [ "clk" ] else []) @ pi_names @ po_names
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s);\n" (sanitize module_name)
       (String.concat ", " ports));
  if has_latches then Buffer.add_string buf "  input clk;\n";
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" p)) pi_names;
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "  output %s;\n" p)) po_names;
  Network.iter_nodes net (fun n ->
      match n.Network.kind with
      | Network.Pi -> ()
      | Network.Latch_out ->
        Buffer.add_string buf
          (Printf.sprintf "  reg %s;\n" (node_name n.Network.id))
      | Network.Logic ->
        Buffer.add_string buf
          (Printf.sprintf "  wire %s;\n" (node_name n.Network.id)));
  Network.iter_nodes net (fun n ->
      match n.Network.kind with
      | Network.Pi | Network.Latch_out -> ()
      | Network.Logic ->
        let operands i = node_name n.Network.fanins.(i) in
        Buffer.add_string buf
          (Printf.sprintf "  assign %s = %s;\n" (node_name n.Network.id)
             (render_expr operands n.Network.expr)));
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "  always @(posedge clk) %s <= %s;\n"
           (node_name l.Network.latch_output)
           (node_name l.Network.latch_input)))
    (Network.latches net);
  List.iter2
    (fun (_, id) po ->
      Buffer.add_string buf
        (Printf.sprintf "  assign %s = %s;\n" po (node_name id)))
    (Network.pos net) po_names;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_netlist ?(module_name = "mapped") ?(cell_style = false) nl =
  let g = nl.Netlist.source in
  let nm = new_namer () in
  let buf = Buffer.create 4096 in
  let pi_name id = ident nm (Subject.pi_name g id) in
  let pis = Subject.pi_ids g in
  let pi_names = List.map pi_name pis in
  let po_names =
    List.map (fun (po, _) -> ident nm ("po$" ^ po)) nl.Netlist.outputs
  in
  let wire i = ident nm (Printf.sprintf "w$%d" i) in
  let driver_net = function
    | Netlist.D_pi id -> pi_name id
    | Netlist.D_gate j -> wire j
    | Netlist.D_const true -> "1'b1"
    | Netlist.D_const false -> "1'b0"
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s);\n" (sanitize module_name)
       (String.concat ", " (pi_names @ po_names)));
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" p))
    pi_names;
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "  output %s;\n" p))
    po_names;
  Array.iter
    (fun inst ->
      Buffer.add_string buf
        (Printf.sprintf "  wire %s;\n" (wire inst.Netlist.inst_id)))
    nl.Netlist.instances;
  Array.iter
    (fun inst ->
      let gate = inst.Netlist.gate in
      if cell_style then begin
        let connections =
          Array.to_list
            (Array.mapi
               (fun pin d ->
                 Printf.sprintf ".%s(%s)"
                   (sanitize gate.Gate.pins.(pin).Gate.pin_name)
                   (driver_net d))
               inst.Netlist.inputs)
          @ [ Printf.sprintf ".%s(%s)"
                (sanitize gate.Gate.output_name)
                (wire inst.Netlist.inst_id) ]
        in
        Buffer.add_string buf
          (Printf.sprintf "  %s g%d (%s);\n" (sanitize gate.Gate.gate_name)
             inst.Netlist.inst_id
             (String.concat ", " connections))
      end
      else begin
        let operands i = driver_net inst.Netlist.inputs.(i) in
        Buffer.add_string buf
          (Printf.sprintf "  assign %s = %s; // %s\n"
             (wire inst.Netlist.inst_id)
             (render_expr operands gate.Gate.expr)
             gate.Gate.gate_name)
      end)
    nl.Netlist.instances;
  List.iter2
    (fun (_, d) po ->
      Buffer.add_string buf
        (Printf.sprintf "  assign %s = %s;\n" po (driver_net d)))
    nl.Netlist.outputs po_names;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
