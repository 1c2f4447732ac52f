(* Differential lockdown of the streaming BLIF reader: for any input —
   well-formed or malformed — Blif must produce the same network as
   the slurping reader in Blif_oracle, or fail with the same
   Parse_error payload (file, line, message). The two implementations
   share no parsing code, so every agreement here is evidence, not
   tautology. The malformed catalog's diagnostics are also pinned as
   golden data, so a change made to both readers at once still shows. *)

open Dagmap_logic
open Dagmap_circuits
open Dagmap_blif

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- structural network equality ------------------------------------- *)

let same_network tag (a : Network.t) (b : Network.t) =
  check tstr (tag ^ ": model") (Network.name a) (Network.name b);
  check tint (tag ^ ": nodes") (Network.num_nodes a) (Network.num_nodes b);
  for id = 0 to Network.num_nodes a - 1 do
    let na = Network.node a id and nb = Network.node b id in
    check tstr (Printf.sprintf "%s: node %d name" tag id) na.Network.name
      nb.Network.name;
    check tbool
      (Printf.sprintf "%s: node %d kind" tag id)
      true
      (na.Network.kind = nb.Network.kind);
    check tbool
      (Printf.sprintf "%s: node %d fanins" tag id)
      true
      (na.Network.fanins = nb.Network.fanins);
    check tbool
      (Printf.sprintf "%s: node %d expr" tag id)
      true
      (na.Network.expr = nb.Network.expr)
  done;
  check tbool (tag ^ ": pis") true (Network.pis a = Network.pis b);
  check tbool (tag ^ ": pos") true (Network.pos a = Network.pos b);
  let la = Network.latches a and lb = Network.latches b in
  check tint (tag ^ ": latch count") (List.length la) (List.length lb);
  List.iter2
    (fun (x : Network.latch) (y : Network.latch) ->
      check tbool (tag ^ ": latch") true
        (x.Network.latch_input = y.Network.latch_input
        && x.Network.latch_output = y.Network.latch_output
        && x.Network.latch_init = y.Network.latch_init))
    la lb

type outcome =
  | Net of Network.t
  | Err of string option * int * string
  | Fail of string

let outcome_of parse source =
  match parse source with
  | net -> Net net
  | exception Blif.Parse_error { file; line; message } ->
    Err (file, line, message)
  | exception Failure m -> Fail m

let show_outcome = function
  | Net n -> Printf.sprintf "network (%s)" (Network.stats n)
  | Err (file, line, message) ->
    Printf.sprintf "Parse_error %s:%d: %s"
      (Option.value ~default:"<string>" file)
      line message
  | Fail m -> Printf.sprintf "Failure %s" m

let agree tag oracle stream =
  match oracle, stream with
  | Net a, Net b -> same_network tag a b
  | Err (fa, la, ma), Err (fb, lb, mb) ->
    check tbool (tag ^ ": error file") true (fa = fb);
    check tint (tag ^ ": error line") la lb;
    check tstr (tag ^ ": error message") ma mb
  | Fail a, Fail b -> check tstr (tag ^ ": failure") a b
  | a, b ->
    Alcotest.failf "%s: readers disagree: oracle %s, stream %s" tag
      (show_outcome a) (show_outcome b)

let both tag source =
  agree tag
    (outcome_of Blif_oracle.read_string source)
    (outcome_of Blif.read_string source)

(* --- generated-circuit differential ----------------------------------- *)

let fuzz_circuits () =
  let rand i =
    Generators.random_dag ~seed:(41 + i)
      ~inputs:(4 + (i mod 7))
      ~outputs:(2 + (i mod 5))
      ~nodes:(20 + (17 * i mod 120))
      ()
  in
  List.init 12 rand
  @ [ Generators.ripple_adder 6;
      Generators.kogge_stone_adder 8;
      Generators.barrel_shifter 8;
      Generators.decoder 4;
      Generators.lfsr 6;
      Generators.pipelined_parity 8 2;
      Generators.nand_chain 200;
      Generators.synthetic_soc ~seed:7 ~nodes:2_000 () ]

let test_generated_circuits () =
  List.iter
    (fun net ->
      let text = Blif.write_network net in
      let tag = Network.name net in
      both tag text;
      (* The streaming result must also match the original writer's
         source network in simulation-relevant structure. *)
      match outcome_of Blif.read_string text with
      | Net reparsed ->
        check tint (tag ^ ": pi count")
          (List.length (Network.pis net))
          (List.length (Network.pis reparsed))
      | o -> Alcotest.failf "%s: stream reader failed: %s" tag (show_outcome o))
    (fuzz_circuits ())

(* qcheck: random textual mutations of valid BLIF — comments,
   continuations, blank lines, tab runs, CRLF endings, character
   corruption. Both readers must agree on the outcome either way. *)
let mutate st text =
  let lines = String.split_on_char '\n' text in
  let mutate_line line =
    match Random.State.int st 10 with
    | 0 -> line ^ " # trailing comment"
    | 1 -> "# full comment\n" ^ line
    | 2 -> "\n" ^ line
    | 3 -> "\t" ^ line ^ "  "
    | 4 -> begin
      (* Split at a space with a continuation backslash. *)
      match String.index_opt line ' ' with
      | Some i when i + 1 < String.length line ->
        String.sub line 0 i ^ " \\\n  "
        ^ String.sub line (i + 1) (String.length line - i - 1)
      | _ -> line
    end
    | 5 -> line ^ "\r"
    | 6 when String.length line > 0 ->
      (* Corrupt one character: likely (but not certainly) malformed. *)
      let i = Random.State.int st (String.length line) in
      let b = Bytes.of_string line in
      Bytes.set b i
        (Char.chr (33 + Random.State.int st 90));
      Bytes.to_string b
    | _ -> line
  in
  String.concat "\n" (List.map mutate_line lines)

let qc_mutations =
  QCheck.Test.make ~count:60 ~name:"mutated sources agree"
    QCheck.(pair small_int small_int)
    (fun (seed, mseed) ->
      let net =
        Generators.random_dag ~seed:(100 + seed) ~inputs:5 ~outputs:3
          ~nodes:(15 + (seed mod 40))
          ()
      in
      let st = Random.State.make [| 0xB11F; mseed; seed |] in
      let text = mutate st (Blif.write_network net) in
      both "mutated" text;
      true)

(* --- malformed-input parity ------------------------------------------- *)

(* Each malformed source with the (line, message) of the Parse_error
   it must raise, or [None] for the one that parses. *)
let malformed_catalog =
  let bogus =
    Some
      (5, "cube line \"bogus\" needs both an input part and an output value")
  in
  [ (".model a b\n", Some (1, "malformed .model"));
    ( ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n",
      Some (5, "cube output must be 0 or 1 in \"1 2\"") );
    ( ".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end\n",
      Some (4, "cube width 2 does not match 1 inputs") );
    (".model m\n.inputs a\n.outputs f\n.end\n", Some (3, "undefined signal f"));
    ( ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n\
       .end\n",
      Some (6, "signal f defined twice") );
    ( ".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n",
      Some (4, "combinational cycle through f") );
    ( ".model m\n.inputs a\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n",
      Some (3, "duplicate input a") );
    ( ".model m\n.inputs a\n.outputs f\n.names w f\n1 1\n.end\n",
      Some (4, "undefined signal w") );
    ( ".model m\n.inputs a b\n.outputs f\n.names a b f\n1x 1\n.end\n",
      Some (4, "bad cube character 'x'") );
    ( ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n",
      Some (4, "mixed on-set and off-set cubes") );
    ( ".model m\n.inputs a\n.outputs f\n.names\n.end\n",
      Some (4, ".names needs at least an output") );
    ( ".model m\n.inputs a\n.outputs f\n.latch\n.end\n",
      Some (4, "malformed .latch") );
    ( ".model m\n.inputs a\n.outputs f\n.latch d\n.end\n",
      Some (4, "malformed .latch") );
    ( ".model m\n.inputs a\n.outputs f\n.exdc\n.end\n",
      Some (4, ".exdc is not supported") );
    ( ".model m\n.inputs a\n.outputs f\nstray line\n.end\n",
      Some (4, "unexpected line \"stray line\" outside a .names block") );
    (".model m\n.inputs a\n.outputs f\n.names a f\nbogus\n.end\n", bogus);
    ( ".model m\n.inputs a\n.outputs f\n.names f\nx\n.end\n",
      Some (5, "malformed constant line \"x\"") );
    ( ".model m\n.inputs a\n.outputs f\n.names a f\n1 1 1\n.end\n",
      Some (5, "malformed cube line \"1 1 1\"") );
    ( ".model m\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n",
      Some (3, "combinational cycle through f") );
    ( ".model m\n.inputs a\n.outputs o\n.latch x q\n.names a q d\n11 1\n.end\n",
      Some (3, "undefined signal o") );
    (* Continuation pathologies around end of input: with a trailing
       newline the line split yields a final empty segment that
       flushes the pending line; without one the pending is flushed at
       EOF. Both must be replayed exactly, including the resulting %S
       diagnostic text. *)
    (".model m\n.inputs a\n.outputs f\n.names a f\nbogus \\\n", bogus);
    (".model m\n.inputs a\n.outputs f\n.names a f\nbogus \\", bogus);
    ( ".model m\n.inputs a\n.outputs f\n.names a \\\nf\n1 2\n.end\n",
      Some (6, "cube output must be 0 or 1 in \"1 2\"") );
    ( ".model m \\\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n",
      Some (1, "malformed .model") );
    ("", None) ]

let test_malformed_parity () =
  List.iteri
    (fun i (source, _) -> both (Printf.sprintf "malformed[%d]" i) source)
    malformed_catalog

let test_malformed_golden () =
  List.iteri
    (fun i (source, expected) ->
      let got =
        match Blif.read_string source with
        | _ -> None
        | exception Blif.Parse_error { line; message; _ } ->
          Some (line, message)
      in
      check
        Alcotest.(option (pair int string))
        (Printf.sprintf "malformed[%d]" i)
        expected got)
    malformed_catalog

let test_malformed_have_errors () =
  (* Guard against the catalog silently rotting into all-valid
     sources: most entries must actually error under the oracle. *)
  let errors =
    List.filter
      (fun (s, _) ->
        match outcome_of Blif_oracle.read_string s with
        | Net _ -> false
        | Err _ | Fail _ -> true)
      malformed_catalog
  in
  check tbool "catalog mostly errors" true
    (List.length errors >= List.length malformed_catalog - 4)

(* --- quirky-but-valid constructs -------------------------------------- *)

let test_edge_cases () =
  List.iteri
    (fun i source -> both (Printf.sprintf "edge[%d]" i) source)
    [ (* No .model, no .end. *)
      ".inputs a\n.outputs f\n.names a f\n1 1\n";
      (* No trailing newline at all. *)
      ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end";
      (* CRLF line endings throughout. *)
      ".model m\r\n.inputs a\r\n.outputs f\r\n.names a f\r\n1 1\r\n.end\r\n";
      (* Comments, blank lines, tabs, multi-line continuation. *)
      "# header\n\n.model\tm\n.inputs \\\n  a \\\n  b\n.outputs f\n\
       .names a b f # and\n11 1\n\n.end\n# trailer\n";
      (* Continuation whose continuation line is a comment. *)
      ".model c \\\n# interleaved\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n";
      (* Text after .end is still parsed (SIS-compatible quirk). *)
      ".model m\n.inputs a\n.outputs f\n.end\n.names a f\n1 1\n";
      (* Dead logic is dropped by demand-driven elaboration. *)
      ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b dead\n1 1\n.end\n";
      (* Constants, off-set covers, don't-cares, duplicate fanin. *)
      ".model m\n.inputs a\n.outputs one zero f g h\n.names one\n1\n\
       .names zero\n.names a a f\n11 1\n.names a g\n0 1\n.names a h\n- 1\n.end\n";
      (* Latches: init variants, latch feeding logic, logic after use. *)
      ".model seq\n.inputs a\n.outputs o\n.latch d q 1\n.latch q2in q2\n\
       .latch a q3 0\n.names a q d\n11 1\n.names q q2 q2in\n10 1\n\
       .names q2 o\n1 1\n.end\n";
      (* Unknown dot-commands ignored. *)
      ".model m\n.clock c\n.inputs a\n.default_input_arrival 0 0\n\
       .outputs f\n.names a f\n1 1\n.end\n";
      (* .inputs and .outputs split across several directives. *)
      ".model m\n.inputs a\n.inputs b\n.outputs f\n.outputs g\n\
       .names a b f\n11 1\n.names b g\n1 1\n.end\n";
      (* Output directly naming a PI via an alias buffer. *)
      ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n" ]

(* --- file / channel entry points -------------------------------------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "dagmap_stream" ".blif" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_read_file_parity () =
  let sources =
    [ Blif.write_network (Generators.alu 4);
      (* Error case: file and line must match, including the file
         payload in the exception. *)
      ".model m\n.inputs a\n.outputs f\n.names a f\nx 1\n.end\n";
      (* Continuation at end of file, with and without the final
         newline — exercises the split-segmentation parity of the
         chunked channel reader. *)
      ".model m\n.inputs a\n.outputs f\n.names a f\nbogus \\\n";
      ".model m\n.inputs a\n.outputs f\n.names a f\nbogus \\";
      "" ]
  in
  List.iteri
    (fun i contents ->
      with_temp_file contents (fun path ->
          agree
            (Printf.sprintf "file[%d]" i)
            (outcome_of Blif_oracle.read_file path)
            (outcome_of Blif.read_file path)))
    sources

let test_read_lines_source () =
  (* read_lines consumes an arbitrary pull source; feed it one
     character-split... rather, one directive per call. *)
  let lines =
    [ ".model src"; ".inputs a b"; ".outputs f"; ".names a b f"; "11 1"; ".end" ]
  in
  let rest = ref lines in
  let next () =
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l
  in
  let net = Blif.read_lines next in
  check tstr "model" "src" (Network.name net);
  check tint "pis" 2 (List.length (Network.pis net))

let test_deep_chain_streaming () =
  (* The streaming reader elaborates on an explicit stack; a deep
     chain must parse without Stack_overflow and agree with the
     recursive oracle (which is still within native stack limits at
     this depth). *)
  let net = Generators.nand_chain 120_000 in
  let text = Blif.write_network net in
  let a = Blif_oracle.read_string text in
  let b = Blif.read_string text in
  same_network "deep chain" a b;
  (* +1: the writer inserts an alias buffer for the PO name. *)
  check tint "all nodes survive" (Network.num_nodes net + 1) (Network.num_nodes b)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "blif_stream"
    [ ( "differential",
        [ Alcotest.test_case "generated circuits" `Quick
            test_generated_circuits;
          qc qc_mutations ] );
      ( "errors",
        [ Alcotest.test_case "malformed parity" `Quick test_malformed_parity;
          Alcotest.test_case "malformed golden" `Quick test_malformed_golden;
          Alcotest.test_case "catalog sanity" `Quick
            test_malformed_have_errors ] );
      ( "entry points",
        [ Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "file parity" `Quick test_read_file_parity;
          Alcotest.test_case "line source" `Quick test_read_lines_source;
          Alcotest.test_case "deep chain" `Quick test_deep_chain_streaming ] ) ]
