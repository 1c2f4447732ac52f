open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

exception Parse_error of { file : string option; line : int; message : string }

let error ?file line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { file; line; message })) fmt

let describe = function
  | Parse_error { file; line; message } ->
    Printf.sprintf "%s:%d: %s"
      (Option.value ~default:"<string>" file)
      line message
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

type raw_names = {
  rn_line : int;
  rn_inputs : string list;
  rn_output : string;
  mutable rn_cubes : (string * char) list;  (* input part, output value *)
}

type raw_latch = {
  rl_line : int;
  rl_input : string;
  rl_output : string;
  rl_init : bool;
}

(* Incremental structure accumulator: one logical line at a time, with
   the directive lists held reversed, so many .inputs/.outputs
   directives cost linear time. *)
type acc = {
  mutable model : string;
  mutable inputs_rev : (int * string) list;
  mutable outputs_rev : (int * string) list;
  mutable names_rev : raw_names list;
  mutable latches_rev : raw_latch list;
  mutable current : raw_names option;
}

let acc_create () =
  { model = "blif";
    inputs_rev = [];
    outputs_rev = [];
    names_rev = [];
    latches_rev = [];
    current = None }

let acc_line ?file acc line text =
  match words text with
  | [] -> ()
  | cmd :: args when String.length cmd > 0 && cmd.[0] = '.' -> begin
    acc.current <- None;
    match cmd, args with
    | ".model", [ m ] -> acc.model <- m
    | ".model", _ -> error ?file line "malformed .model"
    | ".inputs", args ->
      List.iter (fun a -> acc.inputs_rev <- (line, a) :: acc.inputs_rev) args
    | ".outputs", args ->
      List.iter (fun a -> acc.outputs_rev <- (line, a) :: acc.outputs_rev) args
    | ".names", args -> begin
      match List.rev args with
      | out :: rev_ins ->
        let rn =
          { rn_line = line; rn_inputs = List.rev rev_ins; rn_output = out;
            rn_cubes = [] }
        in
        acc.names_rev <- rn :: acc.names_rev;
        acc.current <- Some rn
      | [] -> error ?file line ".names needs at least an output"
    end
    | ".latch", (input :: output :: rest) ->
      let init =
        match List.rev rest with
        | "1" :: _ -> true
        | _ -> false
      in
      acc.latches_rev <-
        { rl_line = line; rl_input = input; rl_output = output; rl_init = init }
        :: acc.latches_rev
    | ".latch", _ -> error ?file line "malformed .latch"
    | ".end", _ -> ()
    | ".exdc", _ -> error ?file line ".exdc is not supported"
    | _, _ ->
      (* Unknown dot-commands (.clock, .default_input_arrival...) are
         ignored, as SIS does for unknown extensions. *)
      ()
  end
  | ws -> begin
    match acc.current, ws with
    | Some rn, [ cube; out ] ->
      if String.length out <> 1 || (out.[0] <> '0' && out.[0] <> '1') then
        error ?file line "cube output must be 0 or 1 in %S" text;
      rn.rn_cubes <- (cube, out.[0]) :: rn.rn_cubes
    | Some rn, [ single ] ->
      (* Constant: a .names with no inputs has cubes of just "1"/"0". *)
      if rn.rn_inputs <> [] then
        error ?file line
          "cube line %S needs both an input part and an output value" single
      else if single = "1" then rn.rn_cubes <- ("", '1') :: rn.rn_cubes
      else if single = "0" then rn.rn_cubes <- ("", '0') :: rn.rn_cubes
      else error ?file line "malformed constant line %S" single
    | Some _, _ -> error ?file line "malformed cube line %S" text
    | None, _ -> error ?file line "unexpected line %S outside a .names block" text
  end

(* Logical-line scanner, applied per raw line as it is read: comment
   strip, trim, trailing-'\' continuation joining, and 1-based line
   numbers attributed to the first raw line of a joined group. *)
let scan next_line emit =
  let pending = ref None in
  let pending_line = ref 0 in
  let lineno = ref 1 in
  let step line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = String.trim line in
    let continued =
      String.length line > 0 && line.[String.length line - 1] = '\\'
    in
    let body =
      if continued then String.sub line 0 (String.length line - 1) else line
    in
    let text, first_line =
      match !pending with
      | Some prefix -> (prefix ^ " " ^ body, !pending_line)
      | None -> (body, !lineno)
    in
    if continued then begin
      pending := Some text;
      pending_line := first_line
    end
    else begin
      pending := None;
      if String.trim text <> "" then emit first_line text
    end;
    incr lineno
  in
  let rec loop () =
    match next_line () with
    | Some line ->
      step line;
      loop ()
    | None -> (
      match !pending with
      | Some text -> emit !pending_line text
      | None -> ())
  in
  loop ()

let expr_of_cubes ?file rn =
  let arity = List.length rn.rn_inputs in
  let cube_expr (cube, _) =
    if String.length cube <> arity then
      error ?file rn.rn_line "cube width %d does not match %d inputs"
        (String.length cube) arity;
    let lits = ref [] in
    String.iteri
      (fun i c ->
        match c with
        | '1' -> lits := (i, true) :: !lits
        | '0' -> lits := (i, false) :: !lits
        | '-' -> ()
        | c -> error ?file rn.rn_line "bad cube character %C" c)
      cube;
    List.rev !lits
  in
  match rn.rn_cubes with
  | [] -> Bexpr.const false
  | cubes ->
    let zeros, ones = List.partition (fun (_, v) -> v = '0') cubes in
    (match zeros, ones with
     | [], ones -> Bexpr.of_cubes (List.map cube_expr ones)
     | zeros, [] -> Bexpr.not_ (Bexpr.of_cubes (List.map cube_expr zeros))
     | _ -> error ?file rn.rn_line "mixed on-set and off-set cubes")

let elaborate ?file acc =
  let inputs = List.rev acc.inputs_rev in
  let outputs = List.rev acc.outputs_rev in
  let names = List.rev acc.names_rev in
  let latches = List.rev acc.latches_rev in
  let net = Network.create ~name:acc.model () in
  let id_of = Hashtbl.create 64 in
  List.iter
    (fun (line, pi) ->
      if Hashtbl.mem id_of pi then error ?file line "duplicate input %s" pi;
      Hashtbl.replace id_of pi (Network.add_pi net pi))
    inputs;
  let by_output = Hashtbl.create 64 in
  List.iter
    (fun rn ->
      if Hashtbl.mem by_output rn.rn_output then
        error ?file rn.rn_line "signal %s defined twice" rn.rn_output;
      Hashtbl.replace by_output rn.rn_output rn)
    names;
  (* Latch outputs are combinational leaves; create them up front so
     logic may reference them, and bind their data inputs after the
     logic is elaborated. *)
  List.iter
    (fun rl ->
      if Hashtbl.mem id_of rl.rl_output then
        error ?file rl.rl_line "latch output %s already defined" rl.rl_output;
      let id =
        Network.add_latch_output net ~name:rl.rl_output ~init:rl.rl_init ()
      in
      Hashtbl.replace id_of rl.rl_output id)
    latches;
  let visiting = Hashtbl.create 64 in
  (* Demand-driven from the outputs, on an explicit stack so that
     million-node deep inputs cannot overflow the native one. Frames
     are (line, name, enter?); children are pushed left-to-right above
     their parent's exit frame, so nodes are created in the order a
     recursive post-order walk would create them. *)
  let stack = Stack.create () in
  let elaborate line name =
    Stack.push (line, name, true) stack;
    while not (Stack.is_empty stack) do
      let line, name, enter = Stack.pop stack in
      if enter then begin
        match Hashtbl.find_opt id_of name with
        | Some _ -> ()
        | None -> begin
          match Hashtbl.find_opt by_output name with
          | None -> error ?file line "undefined signal %s" name
          | Some rn ->
            if Hashtbl.mem visiting name then
              error ?file rn.rn_line "combinational cycle through %s" name;
            Hashtbl.replace visiting name ();
            Stack.push (line, name, false) stack;
            List.iter
              (fun dep -> Stack.push (rn.rn_line, dep, true) stack)
              (List.rev rn.rn_inputs)
        end
      end
      else begin
        let rn = Hashtbl.find by_output name in
        let fanins =
          Array.of_list
            (List.map (fun dep -> Hashtbl.find id_of dep) rn.rn_inputs)
        in
        let expr = expr_of_cubes ?file rn in
        let id = Network.add_logic net ~name expr fanins in
        Hashtbl.remove visiting name;
        Hashtbl.replace id_of name id
      end
    done
  in
  List.iter (fun (line, po) -> elaborate line po) outputs;
  List.iter
    (fun rl ->
      elaborate rl.rl_line rl.rl_input;
      Network.set_latch_input net
        ~latch_output:(Hashtbl.find id_of rl.rl_output)
        (Hashtbl.find id_of rl.rl_input))
    latches;
  List.iter
    (fun (_, po) -> Network.add_po net po (Hashtbl.find id_of po))
    outputs;
  Network.validate net;
  net

let read_lines ?file next_line =
  let acc = acc_create () in
  scan next_line (fun line text -> acc_line ?file acc line text);
  elaborate ?file acc

(* Raw lines are the segments of [String.split_on_char '\n'], so a
   source ending in a newline contributes a final empty segment. That
   matters when the last real line carries a continuation backslash:
   the pending text is then flushed by joining with that empty
   segment, not by end of input, which is observable in %S
   diagnostics. Both sources below produce exactly those segments;
   [input_line] would drop the final one. *)
let read_channel ?file ic =
  let chunk = Bytes.create 65536 in
  let chunk_len = ref 0 in
  let chunk_pos = ref 0 in
  let eof = ref false in
  let finished = ref false in
  let buf = Buffer.create 256 in
  let next_line () =
    if !finished then None
    else begin
      let result = ref None in
      while !result = None && not !finished do
        if !chunk_pos >= !chunk_len && not !eof then begin
          chunk_len := input ic chunk 0 (Bytes.length chunk);
          chunk_pos := 0;
          if !chunk_len = 0 then eof := true
        end;
        if !eof then begin
          finished := true;
          result := Some (Buffer.contents buf)
        end
        else begin
          let nl = ref (-1) in
          let i = ref !chunk_pos in
          while !nl < 0 && !i < !chunk_len do
            if Bytes.unsafe_get chunk !i = '\n' then nl := !i;
            incr i
          done;
          if !nl < 0 then begin
            Buffer.add_subbytes buf chunk !chunk_pos (!chunk_len - !chunk_pos);
            chunk_pos := !chunk_len
          end
          else begin
            Buffer.add_subbytes buf chunk !chunk_pos (!nl - !chunk_pos);
            chunk_pos := !nl + 1;
            result := Some (Buffer.contents buf);
            Buffer.clear buf
          end
        end
      done;
      !result
    end
  in
  read_lines ?file next_line

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> read_channel ~file:path ic)

let read_string ?file source =
  let pos = ref 0 in
  let len = String.length source in
  read_lines ?file (fun () ->
      if !pos > len then None
      else begin
        let stop =
          match String.index_from_opt source !pos '\n' with
          | Some i -> i
          | None -> len
        in
        let line = String.sub source !pos (stop - !pos) in
        pos := stop + 1;
        Some line
      end)

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let write_network net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Network.name net));
  let pi_names =
    List.map (fun id -> (Network.node net id).Network.name) (Network.pis net)
  in
  Buffer.add_string buf (".inputs " ^ String.concat " " pi_names ^ "\n");
  Buffer.add_string buf
    (".outputs " ^ String.concat " " (List.map fst (Network.pos net)) ^ "\n");
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf ".latch %s %s %d\n"
           (Network.node net l.Network.latch_input).Network.name
           (Network.node net l.Network.latch_output).Network.name
           (if l.Network.latch_init then 1 else 0)))
    (Network.latches net);
  Network.iter_nodes net (fun n ->
      match n.Network.kind with
      | Network.Pi | Network.Latch_out -> ()
      | Network.Logic ->
        let fanin_names =
          Array.to_list
            (Array.map (fun f -> (Network.node net f).Network.name) n.Network.fanins)
        in
        Buffer.add_string buf
          (".names " ^ String.concat " " (fanin_names @ [ n.Network.name ]) ^ "\n");
        let arity = Array.length n.Network.fanins in
        let tt = Bexpr.to_truth arity n.Network.expr in
        (match Truth.is_const tt with
         | Some true -> Buffer.add_string buf "1\n"
         | Some false -> ()
         | None ->
           (* Minimized cover keeps the file compact. *)
           List.iter
             (fun cube ->
               for i = 0 to arity - 1 do
                 Buffer.add_char buf
                   (if cube.Sop.mask land (1 lsl i) = 0 then '-'
                    else if cube.Sop.value land (1 lsl i) <> 0 then '1'
                    else '0')
               done;
               Buffer.add_string buf " 1\n")
             (Sop.minimize tt)));
  (* Primary outputs whose name differs from their driving node need
     an alias buffer. *)
  List.iter
    (fun (po_name, id) ->
      let driver = (Network.node net id).Network.name in
      if not (String.equal driver po_name) then
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n1 1\n" driver po_name))
    (Network.pos net);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

(* A written instance or output alias takes about 40 bytes. Sizing
   the buffer up front spares the copies (and the transient old plus
   new buffers) of growing it by doubling, which on a large netlist
   set the writer's memory high-water mark. *)
let write_netlist nl =
  let g = nl.Netlist.source in
  let buf =
    Buffer.create
      (4096
      + (64 * (Array.length nl.Netlist.instances + List.length nl.Netlist.outputs)))
  in
  Buffer.add_string buf ".model mapped\n";
  let pi_name id = Subject.pi_name g id in
  let pis = Subject.pi_ids g in
  Buffer.add_string buf
    (".inputs " ^ String.concat " " (List.map pi_name pis) ^ "\n");
  Buffer.add_string buf
    (".outputs "
    ^ String.concat " " (List.map fst nl.Netlist.outputs)
    ^ "\n");
  let net_of = function
    | Netlist.D_pi id -> pi_name id
    | Netlist.D_gate j -> Printf.sprintf "w%d" j
    | Netlist.D_const b -> if b then "$const1" else "$const0"
  in
  let consts = Hashtbl.create 4 in
  let note_const = function
    | Netlist.D_const b -> Hashtbl.replace consts b ()
    | Netlist.D_pi _ | Netlist.D_gate _ -> ()
  in
  Array.iter
    (fun inst -> Array.iter note_const inst.Netlist.inputs)
    nl.Netlist.instances;
  List.iter (fun (_, d) -> note_const d) nl.Netlist.outputs;
  Hashtbl.iter
    (fun b () ->
      Buffer.add_string buf
        (Printf.sprintf ".names $const%d\n%s" (if b then 1 else 0)
           (if b then "1\n" else "")))
    consts;
  Array.iter
    (fun inst ->
      let gate = inst.Netlist.gate in
      let formals =
        Array.to_list
          (Array.mapi
             (fun pin d ->
               Printf.sprintf "%s=%s" gate.Gate.pins.(pin).Gate.pin_name
                 (net_of d))
             inst.Netlist.inputs)
      in
      Buffer.add_string buf
        (Printf.sprintf ".gate %s %s %s=w%d\n" gate.Gate.gate_name
           (String.concat " " formals) gate.Gate.output_name inst.Netlist.inst_id))
    nl.Netlist.instances;
  (* Output aliases. *)
  List.iter
    (fun (name, d) ->
      let src = net_of d in
      if not (String.equal src name) then
        Buffer.add_string buf (Printf.sprintf ".names %s %s\n1 1\n" src name))
    nl.Netlist.outputs;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
