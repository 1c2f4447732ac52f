(* BLIF reader/writer: parsing constructs, roundtrips, mapped-netlist
   export. *)

open Dagmap_logic
open Dagmap_subject
open Dagmap_core
open Dagmap_genlib
open Dagmap_sim
open Dagmap_circuits
open Dagmap_blif

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_read_simple () =
  let net =
    Blif.read_string
      ".model test\n.inputs a b c\n.outputs f\n.names a b w\n11 1\n\
       .names w c f\n1- 1\n-1 1\n.end\n"
  in
  check Alcotest.string "model name" "test" (Network.name net);
  check tint "pis" 3 (List.length (Network.pis net));
  check tint "pos" 1 (List.length (Network.pos net));
  (* f = (a&b) | c *)
  let words = [| 0b1010L; 0b1100L; 0b0001L |] in
  let f = List.assoc "f" (Simulate.network net words) in
  check tbool "function" true
    (Int64.equal (Int64.logand f 0b1111L) 0b1001L)

let test_comments_and_continuation () =
  let net =
    Blif.read_string
      "# header comment\n.model c \\\n# interleaved\n.inputs a\n.outputs f\n\
       .names a f\n0 1\n.end\n"
  in
  (* ".model c" continues over the escaped newline; the comment line
     in between is dropped. *)
  check tint "one pi" 1 (List.length (Network.pis net));
  let f = List.assoc "f" (Simulate.network net [| 0b01L |]) in
  check tbool "inverter" true (Int64.logand f 1L = 0L && Int64.logand f 2L = 2L)

let test_offset_cover () =
  (* Output column 0 defines the off-set: f = !(a&b). *)
  let net =
    Blif.read_string
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
  in
  let f = List.assoc "f" (Simulate.network net [| 0b1010L; 0b1100L |]) in
  check tbool "nand" true (Int64.equal (Int64.logand f 0b1111L) 0b0111L)

let test_constants () =
  let net =
    Blif.read_string
      ".model m\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n"
  in
  let r = Simulate.network net [| 0L |] in
  check tbool "const one" true (Int64.equal (List.assoc "one" r) (-1L));
  check tbool "const zero" true (Int64.equal (List.assoc "zero" r) 0L)

let test_dont_care_cube () =
  let net =
    Blif.read_string
      ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n1-0 1\n.end\n"
  in
  (* f = a & !c *)
  let words = [| 0b1010L; 0b1100L; 0b0110L |] in
  let f = List.assoc "f" (Simulate.network net words) in
  check tbool "don't care" true
    (Int64.equal (Int64.logand f 0b1111L) 0b1000L)

let test_latch_roundtrip () =
  let net =
    Blif.read_string
      ".model seq\n.inputs a\n.outputs o\n.latch d q 1\n.names a q d\n11 1\n\
       .names q o\n1 1\n.end\n"
  in
  check tint "one latch" 1 (List.length (Network.latches net));
  let l = List.hd (Network.latches net) in
  check tbool "init value" true l.Network.latch_init;
  (* Logic reads the latch output before the .latch statement binds
     its input. *)
  Network.validate net

let test_out_of_order_definitions () =
  (* .names blocks in reverse dependency order. *)
  let net =
    Blif.read_string
      ".model o\n.inputs a b\n.outputs f\n.names w b f\n11 1\n.names a w\n0 1\n.end\n"
  in
  let f = List.assoc "f" (Simulate.network net [| 0b0101L; 0b0011L |]) in
  (* f = !a & b *)
  check tbool "out of order" true (Int64.equal (Int64.logand f 0b1111L) 0b0010L)

let expect_error source =
  match Blif.read_string source with
  | exception Blif.Parse_error _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "expected a parse failure on %S" source

let test_errors () =
  expect_error ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n";
  expect_error ".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end\n";
  expect_error ".model m\n.inputs a\n.outputs f\n.end\n";
  expect_error
    ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n";
  expect_error ".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n"

let expect_error_at ~line ~fragment source =
  match Blif.read_string source with
  | exception Blif.Parse_error { file; line = l; message } ->
    check tint (Printf.sprintf "error line for %S" fragment) line l;
    check tbool
      (Printf.sprintf "message %S mentions %S" message fragment)
      true (contains message fragment);
    check tbool "no file for read_string" true (file = None)
  | _ -> Alcotest.failf "expected a parse failure on %S" source

let test_error_diagnostics () =
  (* Malformed cube line: reported at the cube's own line. *)
  expect_error_at ~line:5 ~fragment:"cube output"
    ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n";
  (* Cube width mismatch: reported at the .names line. *)
  expect_error_at ~line:4 ~fragment:"cube width"
    ".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end\n";
  (* Undefined signal: reported where it is referenced. *)
  expect_error_at ~line:4 ~fragment:"undefined signal w"
    ".model m\n.inputs a\n.outputs f\n.names w f\n1 1\n.end\n";
  expect_error_at ~line:3 ~fragment:"undefined signal f"
    ".model m\n.inputs a\n.outputs f\n.end\n";
  expect_error_at ~line:3 ~fragment:"duplicate input a"
    ".model m\n.inputs a\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n"

let test_error_describe_with_file () =
  let path = Filename.temp_file "dagmap_bad" ".blif" in
  let oc = open_out path in
  output_string oc ".model m\n.inputs a\n.outputs f\n.names a f\nx 1\n.end\n";
  close_out oc;
  let result =
    match Blif.read_file path with
    | exception Blif.Parse_error ({ file; line; _ } as e) ->
      check tbool "file recorded" true (file = Some path);
      check tint "line recorded" 4 line;
      Some (Blif.describe (Blif.Parse_error e))
    | _ -> None
  in
  Sys.remove path;
  match result with
  | Some text ->
    (* Genlib-parser style "file:line: message" prefix. *)
    check tbool "describe prefix" true
      (contains text (Printf.sprintf "%s:4: " path))
  | None -> Alcotest.fail "expected a parse failure"

let test_write_read_roundtrip () =
  List.iter
    (fun net ->
      let text = Blif.write_network net in
      let reparsed = Blif.read_string text in
      let n = Simulate.num_inputs_network net in
      let verdict =
        Equiv.compare_sims ~rounds:6 ~n_inputs:n
          (fun words -> Simulate.network net words)
          (fun words -> Simulate.network reparsed words)
      in
      if not (Equiv.is_equivalent verdict) then
        Alcotest.failf "roundtrip failed for %s: %s" (Network.name net)
          (Format.asprintf "%a" Equiv.pp_verdict verdict))
    [ Generators.ripple_adder 6;
      Generators.alu 4;
      Generators.comparator 6;
      Generators.lfsr 5;
      Generators.random_dag ~seed:3 ~inputs:8 ~outputs:4 ~nodes:60 () ]

let test_write_netlist_gates () =
  let net = Generators.parity 8 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let nl = (Mapper.map Mapper.Dag db g).Mapper.netlist in
  let text = Blif.write_netlist nl in
  check tbool ".gate statements" true (contains text ".gate ");
  check tbool "model line" true (contains text ".model mapped");
  check tbool "outputs listed" true (contains text ".outputs");
  (* One .gate line per instance. *)
  let count_gates =
    List.length
      (List.filter
         (fun line -> String.length line >= 5 && String.sub line 0 5 = ".gate")
         (String.split_on_char '\n' text))
  in
  check tint "gate line count" (Netlist.num_gates nl) count_gates

let test_write_netlist_golden () =
  (* Byte for byte: constant drivers on pins and outputs, and outputs
     aliased to an instance, a PI and a constant. *)
  let bld = Subject.Builder.create () in
  let a = Subject.Builder.pi bld "a" in
  let b = Subject.Builder.pi bld "b" in
  Subject.Builder.output bld "o" (Subject.Builder.nand bld a b);
  let g = Subject.Builder.finish bld in
  let pins names = Array.map Gate.simple_pin names in
  let nand2 =
    Gate.make ~name:"nand2" ~area:2.0 ~output_name:"Y" ~pins:(pins [| "A"; "B" |])
      Bexpr.(not_ (and2 (var 0) (var 1)))
  in
  let inv =
    Gate.make ~name:"inv" ~area:1.0 ~pins:(pins [| "A" |]) Bexpr.(not_ (var 0))
  in
  let inst inst_id gate inputs =
    { Netlist.inst_id; gate; inputs; subject_root = 0; covers = [||] }
  in
  let nl =
    { Netlist.source = g;
      instances =
        [| inst 0 nand2 [| Netlist.D_pi a; Netlist.D_const true |];
           inst 1 inv [| Netlist.D_gate 0 |];
           inst 2 nand2 [| Netlist.D_gate 1; Netlist.D_const false |] |];
      outputs =
        [ ("w1", Netlist.D_gate 1);
          ("x", Netlist.D_gate 2);
          ("pa", Netlist.D_pi a);
          ("b", Netlist.D_pi b);
          ("k1", Netlist.D_const true);
          ("k0", Netlist.D_const false) ] }
  in
  check Alcotest.string "golden"
    ".model mapped\n\
     .inputs a b\n\
     .outputs w1 x pa b k1 k0\n\
     .names $const0\n\
     .names $const1\n\
     1\n\
     .gate nand2 A=a B=$const1 Y=w0\n\
     .gate inv A=w0 O=w1\n\
     .gate nand2 A=w1 B=$const0 Y=w2\n\
     .names w2 x\n\
     1 1\n\
     .names a pa\n\
     1 1\n\
     .names $const1 k1\n\
     1 1\n\
     .names $const0 k0\n\
     1 1\n\
     .end\n"
    (Blif.write_netlist nl)

(* --- Verilog export --------------------------------------------------- *)

let count_lines pred text =
  List.length (List.filter pred (String.split_on_char '\n' text))

let test_verilog_netlist () =
  let net = Generators.alu 4 in
  let g = Subject.of_network net in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let nl = (Mapper.map Mapper.Dag db g).Mapper.netlist in
  let text = Verilog.write_netlist nl in
  check tbool "module header" true (contains text "module mapped(");
  check tbool "endmodule" true (contains text "endmodule");
  (* One assignment per instance plus one per output. *)
  let assigns = count_lines (fun l -> contains l "assign") text in
  check tint "assign count"
    (Netlist.num_gates nl + List.length nl.Netlist.outputs)
    assigns;
  (* Cell style instead instantiates gates by name. *)
  let cells = Verilog.write_netlist ~cell_style:true nl in
  check tbool "cell instantiation" true (contains cells "nand2 g");
  let insts = count_lines (fun l -> contains l " g") cells in
  check tbool "instances present" true (insts >= Netlist.num_gates nl)

let test_verilog_network_with_latches () =
  let net = Generators.lfsr 4 in
  let text = Verilog.write_network net in
  check tbool "clk port" true (contains text "input clk;");
  check tbool "registers" true (contains text "always @(posedge clk)");
  check tint "one always per latch" 4
    (count_lines (fun l -> contains l "always @(posedge clk)") text)

let test_verilog_sanitization () =
  let net = Network.create ~name:"weird" () in
  let a = Network.add_pi net "a[0]" in
  let b = Network.add_pi net "module" in
  let f =
    Network.add_logic net ~name:"3bad.name"
      (Bexpr.and2 (Bexpr.var 0) (Bexpr.var 1))
      [| a; b |]
  in
  Network.add_po net "out.x" f;
  let text = Verilog.write_network net in
  check tbool "no brackets" false (contains text "a[0]");
  check tbool "keyword suffixed" true (contains text "module_");
  check tbool "digit prefixed" true (contains text "n3bad_name");
  check tbool "po renamed" true (contains text "po$out_x")

let test_read_file () =
  let path = Filename.temp_file "dagmap" ".blif" in
  let oc = open_out path in
  output_string oc ".model f\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n";
  close_out oc;
  let net = Blif.read_file path in
  Sys.remove path;
  check tint "one pi" 1 (List.length (Network.pis net))

let () =
  Alcotest.run "blif"
    [ ( "reader",
        [ Alcotest.test_case "simple" `Quick test_read_simple;
          Alcotest.test_case "comments/continuation" `Quick
            test_comments_and_continuation;
          Alcotest.test_case "off-set cover" `Quick test_offset_cover;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "don't care" `Quick test_dont_care_cube;
          Alcotest.test_case "latches" `Quick test_latch_roundtrip;
          Alcotest.test_case "out of order" `Quick test_out_of_order_definitions;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error diagnostics" `Quick test_error_diagnostics;
          Alcotest.test_case "describe with file" `Quick
            test_error_describe_with_file;
          Alcotest.test_case "read file" `Quick test_read_file ] );
      ( "writer",
        [ Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "netlist gates" `Quick test_write_netlist_gates;
          Alcotest.test_case "netlist golden" `Quick test_write_netlist_golden ] );
      ( "verilog",
        [ Alcotest.test_case "netlist export" `Quick test_verilog_netlist;
          Alcotest.test_case "latches" `Quick test_verilog_network_with_latches;
          Alcotest.test_case "sanitization" `Quick test_verilog_sanitization ] ) ]
