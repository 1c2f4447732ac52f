(* The techmap command line on hostile inputs: a bad genlib library
   must end in a one-line error and exit 124, like other user errors,
   never in an uncaught exception. *)

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* The binary built next to this test, wherever it is run from. *)
let techmap =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "techmap.exe" ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run techmap with [args]; return (exit code, stderr). *)
let run args =
  let err = Filename.temp_file "techmap" ".err" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote (techmap :: args)
         @ [ ">"; Filename.null; "2>"; Filename.quote err ]))
  in
  let stderr = read_file err in
  Sys.remove err;
  (code, stderr)

let with_genlib source f =
  let path = Filename.temp_file "hostile" ".genlib" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let inv = "GATE inv 928 O=!a; PIN a INV 1 999 0.50 0.10 0.50 0.10\n"
let nand2 = "GATE nand2 1392 O=!(a*b); PIN * INV 1 999 1.00 0.15 1.00 0.15\n"

let expect_user_error what args fragment =
  let code, stderr = run args in
  check tint (what ^ ": exit code") 124 code;
  check tbool (what ^ ": one line") true
    (List.length (String.split_on_char '\n' (String.trim stderr)) = 1);
  check tbool
    (Printf.sprintf "%s: stderr %S mentions %S" what stderr fragment)
    true (contains stderr fragment);
  check tbool (what ^ ": no uncaught exception") false
    (contains stderr "uncaught exception")

let test_infinite_delay () =
  with_genlib
    (inv ^ "GATE nand2 1392 O=!(a*b); PIN * INV 1 999 1e400 0.15 1.00 0.15\n")
    (fun lib ->
      expect_user_error "map" [ "map"; "c432"; "--lib"; lib ]
        ":2:43: delay must be finite and non-negative")

let test_no_inverter () =
  with_genlib
    (nand2 ^ "GATE and2 1392 O=a*b; PIN * NONINV 1 999 1.00 0.15 1.00 0.15\n")
    (fun lib ->
      List.iter
        (fun mode ->
          expect_user_error ("map --mode " ^ mode)
            [ "map"; "c432"; "--lib"; lib; "--mode"; mode ]
            "cannot cover a bare INV and NAND2")
        [ "dag"; "cut" ])

let test_negative_delay () =
  with_genlib
    ("GATE inv 928 O=!a; PIN a INV 1 999 -1.0 0.10 -1.0 0.10\n" ^ nand2)
    (fun lib ->
      List.iter
        (fun cmd ->
          expect_user_error cmd [ cmd; "c432"; "--lib"; lib ]
            ":1:36: delay must be finite and non-negative")
        [ "map"; "check" ])

(* A well-formed genlib file passes the coverage check and maps. *)
let test_good_library () =
  with_genlib (inv ^ nand2) (fun lib ->
      let code, stderr = run [ "map"; "c432"; "--lib"; lib; "--verify" ] in
      check tint ("exit code, stderr: " ^ stderr) 0 code)

(* Cut mode parallelizes on its own: --jobs needs no engine switch. *)
let test_cut_jobs () =
  let code, stderr =
    run [ "map"; "c432"; "--lib"; "lib2"; "--mode"; "cut"; "--jobs"; "2" ]
  in
  check tint ("exit code, stderr: " ^ stderr) 0 code

(* Every mode maps on the arena and every file is read by the one
   streaming reader, so neither switch exists any more. *)
let test_retired_flags () =
  List.iter
    (fun flag ->
      let code, _ = run [ "map"; "c432"; flag ] in
      check tint (flag ^ " is a usage error") 124 code)
    [ "--arena"; "--stream" ]

(* fpga --verify simulates the LUT network -o writes, combinational
   and sequential. *)
let test_fpga_verify () =
  List.iter
    (fun circuit ->
      let code, stderr = run [ "fpga"; circuit; "--verify" ] in
      check tint (circuit ^ ": exit code, stderr: " ^ stderr) 0 code)
    [ "c880"; "lfsr16" ]

let () =
  Alcotest.run "cli"
    [ ( "hostile libraries",
        [ Alcotest.test_case "infinite NAND2 delay" `Quick test_infinite_delay;
          Alcotest.test_case "no inverter" `Quick test_no_inverter;
          Alcotest.test_case "negative INV delay" `Quick test_negative_delay;
          Alcotest.test_case "well-formed file" `Quick test_good_library ] );
      ( "cut mode",
        [ Alcotest.test_case "jobs on the cut engine" `Quick test_cut_jobs ] );
      ( "flags",
        [ Alcotest.test_case "--arena and --stream retired" `Quick
            test_retired_flags;
          Alcotest.test_case "fpga --verify" `Quick test_fpga_verify ] ) ]
