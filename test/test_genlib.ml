(* Genlib parsing: gates, pin clauses, latch skipping, errors, and
   the built-in libraries. *)

open Dagmap_logic
open Dagmap_genlib

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float 1e-9

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_single_gate () =
  let gates =
    Genlib_parser.parse_string
      "GATE nand2 4.0 O=!(a*b); PIN a INV 1 999 1.0 0.2 1.1 0.3\n\
       PIN b INV 1 999 1.2 0.2 0.9 0.3\n"
  in
  match gates with
  | [ g ] ->
    check Alcotest.string "name" "nand2" g.Gate.gate_name;
    check tfloat "area" 4.0 g.Gate.area;
    check tint "pins" 2 (Gate.num_pins g);
    check Alcotest.string "pin 0" "a" g.Gate.pins.(0).Gate.pin_name;
    check tfloat "pin 0 delay (max rise/fall)" 1.1 (Gate.intrinsic_delay g 0);
    check tfloat "pin 1 delay" 1.2 (Gate.intrinsic_delay g 1);
    check tbool "function" true
      (Truth.equal g.Gate.func
         (Truth.lognand (Truth.var 2 0) (Truth.var 2 1)))
  | gates -> Alcotest.failf "expected 1 gate, got %d" (List.length gates)

let test_star_pin () =
  let gates =
    Genlib_parser.parse_string
      "GATE and3 6.0 O=a*b*c; PIN * NONINV 1 999 2.0 0.1 2.0 0.1\n"
  in
  match gates with
  | [ g ] ->
    check tint "three pins from star" 3 (Gate.num_pins g);
    Array.iter
      (fun p -> check tfloat "star delay" 2.0 p.Gate.rise_block)
      g.Gate.pins
  | _ -> Alcotest.fail "expected 1 gate"

let test_comments_and_multiple () =
  let gates =
    Genlib_parser.parse_string
      "# a comment line\n\
       GATE inv 1.0 O=!a; PIN a INV 1 999 0.5 0.1 0.5 0.1\n\
       GATE buf 2.0 O=a; # trailing comment\nPIN a NONINV 1 999 1.0 0.1 1.0 0.1\n"
  in
  check tint "two gates" 2 (List.length gates);
  check tbool "first is inverter" true (Gate.is_inverter (List.nth gates 0));
  check tbool "second is buffer" true (Gate.is_buffer (List.nth gates 1))

let test_latch_skipped () =
  let gates =
    Genlib_parser.parse_string
      "GATE inv 1.0 O=!a; PIN a INV 1 999 0.5 0.1 0.5 0.1\n\
       LATCH dff 8.0 Q=D; PIN D NONINV 1 999 1 0 1 0\n\
       SEQ Q ANY RISING_EDGE\n\
       CONTROL CLK 1 999 1 0 1 0\n\
       GATE nor2 3.0 O=!(a+b); PIN * INV 1 999 1.3 0.2 1.3 0.2\n"
  in
  check tint "latch skipped, two gates" 2 (List.length gates)

let test_no_pin_clause_defaults () =
  let gates = Genlib_parser.parse_string "GATE wire 0.0 O=a;\n" in
  match gates with
  | [ g ] -> check tfloat "default pin delay" 1.0 (Gate.intrinsic_delay g 0)
  | _ -> Alcotest.fail "expected 1 gate"

let expect_error source =
  match Genlib_parser.parse_string source with
  | exception Genlib_parser.Syntax_error _ -> ()
  | _ -> Alcotest.failf "expected syntax error on %S" source

let test_errors () =
  expect_error "GATE broken 1.0 O=;";
  expect_error "GATE broken 1.0 noequals;";
  expect_error "GATE broken xyz O=a;";
  expect_error "GATE missing_pin 1.0 O=a*b; PIN a INV 1 999 1 0 1 0\n";
  expect_error "FOO bar\n";
  expect_error "GATE trunc 1.0 O=a; PIN a INV 1 999 1\n"

(* Errors carry the file, line and column of the offending token. *)
let test_error_positions () =
  let expect_pos ?file source eline ecol =
    match Genlib_parser.parse_string ?file source with
    | exception Genlib_parser.Syntax_error { file = f; line; col; _ } ->
      check (Alcotest.option Alcotest.string) "file" file f;
      check tint "line" eline line;
      check tint "col" ecol col
    | _ -> Alcotest.failf "expected syntax error on %S" source
  in
  (* Bad phase keyword on line 2, column 7. *)
  expect_pos
    "GATE inv 1.0 O=!a;\nPIN a WAT 1 999 0.5 0.1 0.5 0.1\n"
    2 7;
  (* Bad area number: the offending token is "xyz" at column 13. *)
  expect_pos "GATE broken xyz O=a;\n" 1 13;
  (* Stray toplevel token, with a file label. *)
  expect_pos ~file:"cells.genlib"
    "GATE inv 1.0 O=!a; PIN a INV 1 999 0.5 0.1 0.5 0.1\nFOO bar\n"
    2 1;
  (* describe renders file:line:col. *)
  (match Genlib_parser.parse_string ~file:"x.genlib" "FOO\n" with
   | exception (Genlib_parser.Syntax_error _ as e) ->
     check tbool "describe mentions position" true
       (String.length (Genlib_parser.describe e) > 0
       && String.sub (Genlib_parser.describe e) 0 12 = "x.genlib:1:1")
   | _ -> Alcotest.fail "expected syntax error")

(* A pin delay that is infinite ("1e400" overflows to one), not a
   number, or negative is rejected at the offending field. *)
let test_hostile_delays () =
  let expect_delay_error source eline ecol =
    match Genlib_parser.parse_string ~file:"bad.genlib" source with
    | exception (Genlib_parser.Syntax_error { line; col; message; _ } as e) ->
      check tint (source ^ ": line") eline line;
      check tint (source ^ ": col") ecol col;
      check tbool (source ^ ": message") true
        (contains message "finite and non-negative");
      check tbool "describe has file:line:col" true
        (contains (Genlib_parser.describe e)
           (Printf.sprintf "bad.genlib:%d:%d:" eline ecol))
    | _ -> Alcotest.failf "expected a delay error on %S" source
  in
  let pin fields = "GATE g 1 O=!a;\nPIN * INV 1 999 " ^ fields ^ "\n" in
  expect_delay_error (pin "1e400 0 1 0") 2 17;
  expect_delay_error (pin "-1.0 0 -1.0 0") 2 17;
  expect_delay_error (pin "1 nan 1 0") 2 19;
  expect_delay_error (pin "1 0 1 -0.5") 2 23;
  (* Zero delays stay legal. *)
  check tint "zero delay parses" 1
    (List.length (Genlib_parser.parse_string (pin "0 0 0 0")))

let test_print_parse_roundtrip () =
  let lib = Libraries.lib2_like () in
  let text = Genlib_parser.to_string lib.Libraries.gates in
  let reparsed = Genlib_parser.parse_string text in
  check tint "same gate count" (List.length lib.Libraries.gates)
    (List.length reparsed);
  List.iter2
    (fun a b ->
      check Alcotest.string "name" a.Gate.gate_name b.Gate.gate_name;
      check tbool
        (Printf.sprintf "function of %s" a.Gate.gate_name)
        true
        (Truth.equal a.Gate.func b.Gate.func);
      check tfloat "area" a.Gate.area b.Gate.area)
    lib.Libraries.gates reparsed

let test_builtin_libraries () =
  let l44_1 = Libraries.lib44_1_like () in
  check tint "44-1 has exactly 7 gates" 7 (List.length l44_1.Libraries.gates);
  let l44_3 = Libraries.lib44_3_like () in
  let n = List.length l44_3.Libraries.gates in
  check tbool "44-3 has hundreds of gates" true (n >= 500 && n <= 625);
  (* Strict superset: every 44-1 gate name appears in 44-3. *)
  List.iter
    (fun g ->
      check tbool
        (Printf.sprintf "44-3 contains %s" g.Gate.gate_name)
        true
        (List.exists
           (fun h -> String.equal h.Gate.gate_name g.Gate.gate_name)
           l44_3.Libraries.gates))
    l44_1.Libraries.gates;
  (* The largest 44-3 gate has 16 inputs, as in the paper. *)
  let max_pins =
    List.fold_left (fun acc g -> max acc (Gate.num_pins g)) 0
      l44_3.Libraries.gates
  in
  check tint "largest 44-3 gate has 16 inputs" 16 max_pins;
  let lib2 = Libraries.lib2_like () in
  check tbool "lib2 has ~30 gates" true
    (List.length lib2.Libraries.gates >= 25);
  (* Every library contains INV and NAND2 (mappability guarantee). *)
  List.iter
    (fun name ->
      match Libraries.by_name name with
      | None -> Alcotest.failf "missing library %s" name
      | Some lib ->
        check tbool (name ^ " has inverter") true
          (List.exists Gate.is_inverter lib.Libraries.gates);
        check tbool (name ^ " has nand2") true
          (List.exists
             (fun g ->
               Gate.num_pins g = 2
               && Truth.equal g.Gate.func
                    (Truth.lognand (Truth.var 2 0) (Truth.var 2 1)))
             lib.Libraries.gates))
    Libraries.names

let test_gate_make_errors () =
  Alcotest.check_raises "formula beyond pins"
    (Invalid_argument
       "Gate.make bad: formula references pin 1 but only 1 pins") (fun () ->
      ignore
        (Gate.make ~name:"bad" ~area:1.0
           ~pins:[| Gate.simple_pin "a" |]
           (Bexpr.and2 (Bexpr.var 0) (Bexpr.var 1))))

let test_constant_gate_detection () =
  let g =
    Gate.make ~name:"tie1" ~area:1.0 ~pins:[||] (Bexpr.const true)
  in
  check tbool "constant detected" true (Gate.is_constant g = Some true)

let () =
  Alcotest.run "genlib"
    [ ( "parser",
        [ Alcotest.test_case "single gate" `Quick test_single_gate;
          Alcotest.test_case "star pin" `Quick test_star_pin;
          Alcotest.test_case "comments" `Quick test_comments_and_multiple;
          Alcotest.test_case "latch skipped" `Quick test_latch_skipped;
          Alcotest.test_case "pin defaults" `Quick test_no_pin_clause_defaults;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "hostile delays" `Quick test_hostile_delays;
          Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip ] );
      ( "libraries",
        [ Alcotest.test_case "builtins" `Quick test_builtin_libraries;
          Alcotest.test_case "gate make errors" `Quick test_gate_make_errors;
          Alcotest.test_case "constant gate" `Quick test_constant_gate_detection ] ) ]
