open Dagmap_logic

exception
  Syntax_error of {
    file : string option;
    line : int;
    col : int;
    message : string;
  }

let describe = function
  | Syntax_error { file; line; col; message } ->
    Printf.sprintf "%s:%d:%d: %s"
      (Option.value file ~default:"<genlib>")
      line col message
  | _ -> invalid_arg "Genlib_parser.describe"

type pos = { line : int; col : int }

type token = { text : string; pos : pos }

(* Tokenize: strip comments, split GATE statements on ';', keep PIN
   lines word-wise. The grammar is line-oriented enough that a simple
   word scanner suffices; formulas are re-parsed by Bexpr.parse.
   Every token remembers the 1-based line/column of its first
   character so errors can point at the offending input. *)
let tokenize source =
  let tokens = ref [] in
  let buf = Buffer.create 32 in
  let line = ref 1 in
  let col = ref 1 in
  let tok_pos = ref { line = 1; col = 1 } in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := { text = Buffer.contents buf; pos = !tok_pos } :: !tokens;
      Buffer.clear buf
    end
  in
  let in_comment = ref false in
  String.iter
    (fun c ->
      (match c with
       | '\n' ->
         flush ();
         in_comment := false
       | _ when !in_comment -> ()
       | '#' ->
         flush ();
         in_comment := true
       | ' ' | '\t' | '\r' -> flush ()
       | ';' ->
         flush ();
         tokens := { text = ";"; pos = { line = !line; col = !col } } :: !tokens
       | c ->
         if Buffer.length buf = 0 then tok_pos := { line = !line; col = !col };
         Buffer.add_char buf c);
      if c = '\n' then begin
        incr line;
        col := 1
      end
      else incr col)
    source;
  flush ();
  List.rev !tokens

let error ?file pos fmt =
  Printf.ksprintf
    (fun message ->
      raise (Syntax_error { file; line = pos.line; col = pos.col; message }))
    fmt

let float_of_token ?file t =
  match float_of_string_opt t.text with
  | Some f -> f
  | None -> error ?file t.pos "expected a number, got %S" t.text

(* A pin delay must be a finite, non-negative number: infinity ("1e400"
   parses as one) makes every match through the pin unusable, and the
   mapper and the timing analyzer disagree on arrivals below zero. *)
let delay_of_token ?file t =
  let d = float_of_token ?file t in
  if Float.is_finite d && d >= 0.0 then d
  else error ?file t.pos "delay must be finite and non-negative, got %S" t.text

let phase_of_token ?file t =
  match t.text with
  | "INV" -> Gate.Inv
  | "NONINV" -> Gate.Noninv
  | "UNKNOWN" -> Gate.Unknown
  | s -> error ?file t.pos "expected INV/NONINV/UNKNOWN, got %S" s

(* One PIN clause: 8 fields after the keyword. *)
let parse_pin ?file pos rest =
  match rest with
  | name :: ph :: il :: ml :: rb :: rf :: fb :: ff :: tail ->
    (* Fields are converted left to right, so an error names the
       first bad one (record fields evaluate in unspecified order). *)
    let phase = phase_of_token ?file ph in
    let input_load = float_of_token ?file il in
    let max_load = float_of_token ?file ml in
    let rise_block = delay_of_token ?file rb in
    let rise_fanout = delay_of_token ?file rf in
    let fall_block = delay_of_token ?file fb in
    let fall_fanout = delay_of_token ?file ff in
    ( { Gate.pin_name = name.text; phase; input_load; max_load; rise_block;
        rise_fanout; fall_block; fall_fanout },
      tail )
  | _ -> error ?file pos "truncated PIN clause"

(* Collect formula tokens up to ';' (formulas may contain spaces). *)
let rec take_until_semi acc = function
  | [] -> (List.rev acc, [])
  | { text = ";"; _ } :: rest -> (List.rev acc, rest)
  | t :: rest -> take_until_semi (t :: acc) rest

let split_equation ?file pos tokens =
  let text = String.concat " " (List.map (fun t -> t.text) tokens) in
  let pos = match tokens with t :: _ -> t.pos | [] -> pos in
  match String.index_opt text '=' with
  | None -> error ?file pos "expected <output>=<formula> in GATE statement"
  | Some i ->
    let output = String.trim (String.sub text 0 i) in
    let formula = String.sub text (i + 1) (String.length text - i - 1) in
    if String.equal output "" then error ?file pos "empty output name";
    (output, formula)

let rec parse_statements ?file acc tokens =
  match tokens with
  | [] -> List.rev acc
  | { text = "GATE"; pos } :: rest -> begin
    match rest with
    | name :: area :: more ->
      let equation_tokens, after = take_until_semi [] more in
      let output_name, formula = split_equation ?file pos equation_tokens in
      let pin_names = ref [] in
      let expr =
        try Bexpr.parse ~pin_names formula
        with Bexpr.Parse_error m ->
          error ?file name.pos "bad formula for %s: %s" name.text m
      in
      let pins, after = parse_pins ?file pos [] after in
      let pins = assign_pins ?file name.pos name.text !pin_names pins in
      let gate =
        try
          Gate.make ~name:name.text ~area:(float_of_token ?file area)
            ~output_name ~pins expr
        with Invalid_argument m -> error ?file name.pos "%s" m
      in
      parse_statements ?file (gate :: acc) after
    | _ -> error ?file pos "truncated GATE statement"
  end
  | { text = "LATCH"; pos } :: rest ->
    (* Skip the LATCH statement and its trailing clauses. *)
    let _, after = take_until_semi [] rest in
    let after = skip_latch_clauses pos after in
    parse_statements ?file acc after
  | { text; pos } :: _ -> error ?file pos "unexpected token %S" text

and parse_pins ?file pos acc tokens =
  match tokens with
  | { text = "PIN"; pos = pl } :: rest ->
    let pin, after = parse_pin ?file pl rest in
    parse_pins ?file pos (pin :: acc) after
  | _ -> (List.rev acc, tokens)

and skip_latch_clauses pos tokens =
  match tokens with
  | { text = "PIN" | "SEQ" | "CONTROL" | "CONSTRAINT"; _ } :: rest ->
    (* Each clause is fixed-arity except we just drop words until the
       next keyword; clause words never collide with keywords. *)
    let rec drop = function
      | ({ text = "PIN" | "SEQ" | "CONTROL" | "CONSTRAINT" | "GATE" | "LATCH"; _ }
         :: _) as l ->
        l
      | [] -> []
      | _ :: rest -> drop rest
    in
    skip_latch_clauses pos (drop rest)
  | _ -> tokens

(* Distribute parsed PIN clauses over the formula's pins: a clause
   whose name matches applies to that pin; a "*" clause applies to all
   pins without an explicit clause. *)
and assign_pins ?file pos gate_name pin_names clauses =
  let star =
    List.find_opt (fun p -> String.equal p.Gate.pin_name "*") clauses
  in
  let lookup name =
    match
      List.find_opt (fun p -> String.equal p.Gate.pin_name name) clauses
    with
    | Some p -> { p with Gate.pin_name = name }
    | None -> begin
      match star with
      | Some p -> { p with Gate.pin_name = name }
      | None ->
        if clauses = [] then Gate.simple_pin name
        else error ?file pos "gate %s: no PIN clause for input %s" gate_name name
    end
  in
  Array.of_list (List.map lookup pin_names)

let parse_string ?file source = parse_statements ?file [] (tokenize source)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let source = really_input_string ic len in
  close_in ic;
  parse_string ~file:path source

let to_string gates =
  String.concat "\n" (List.map Gate.to_genlib_string gates) ^ "\n"
