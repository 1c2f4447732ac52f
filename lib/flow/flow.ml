open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_cutmap
open Dagmap_super
open Dagmap_circuits

(* ------------------------------------------------------------------ *)
(* Engines                                                             *)
(* ------------------------------------------------------------------ *)

type engine = Pattern of Mapper.mode | Cut of { priority : int }

let default_cut_priority = 8

let engine_of_string ?(priority = default_cut_priority) = function
  | "tree" -> Pattern Mapper.Tree
  | "dag" -> Pattern Mapper.Dag
  | "dag-extended" -> Pattern Mapper.Dag_extended
  | "cut" -> Cut { priority }
  | m ->
    failwith (Printf.sprintf "unknown mode %S (tree/dag/dag-extended/cut)" m)

let engine_name = function Pattern m -> Mapper.mode_name m | Cut _ -> "cut"

(* ------------------------------------------------------------------ *)
(* Circuits                                                            *)
(* ------------------------------------------------------------------ *)

let named_circuits =
  [ ("c432", Iscas_like.c432_like);
    ("c880", Iscas_like.c880_like);
    ("c1355", Iscas_like.c1355_like);
    ("c1908", Iscas_like.c1908_like);
    ("c2670", Iscas_like.c2670_like);
    ("c3540", Iscas_like.c3540_like);
    ("c5315", Iscas_like.c5315_like);
    ("c6288", Iscas_like.c6288_like);
    ("c7552", Iscas_like.c7552_like);
    ("adder16", fun () -> Generators.ripple_adder 16);
    ("adder32", fun () -> Generators.carry_lookahead_adder 32);
    ("ks32", fun () -> Generators.kogge_stone_adder 32);
    ("wmult16", fun () -> Generators.wallace_multiplier 16);
    ("bshift64", fun () -> Generators.barrel_shifter 64);
    ("mult8", fun () -> Generators.array_multiplier 8);
    ("mult16", fun () -> Generators.array_multiplier 16);
    ("alu16", fun () -> Generators.alu 16);
    ("parity64", fun () -> Generators.parity 64);
    ("lfsr16", fun () -> Generators.lfsr 16);
    ("pparity32", fun () -> Generators.pipelined_parity 32 4) ]

exception Too_large of string

let max_spec_size = 100_000

(* Named benchmarks, then the sized generators, which reach the
   huge-tier workloads from every front end without a BLIF file. A
   size above [max_size] is refused before anything is generated. *)
let spec_circuit ~max_size spec =
  let positive what s =
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> failwith (Printf.sprintf "bad %s in circuit spec %S" what spec)
  in
  let size what s =
    let n = positive what s in
    if n > max_size then
      raise
        (Too_large
           (Printf.sprintf "circuit spec %S: %s %d is above the limit of %d"
              spec what n max_size));
    n
  in
  match List.assoc_opt spec named_circuits, String.split_on_char ':' spec with
  | Some f, _ -> Some (f ())
  | None, [ "chain"; n ] -> Some (Generators.nand_chain (size "length" n))
  | None, [ "soc"; n ] ->
    Some (Generators.synthetic_soc ~nodes:(size "size" n) ())
  | None, [ "soc"; n; seed ] ->
    let nodes = size "size" n in
    Some (Generators.synthetic_soc ~seed:(positive "seed" seed) ~nodes ())
  | None, _ -> None

let circuit_of_spec spec =
  match spec_circuit ~max_size:max_spec_size spec with
  | Some net -> net
  | None ->
    failwith
      (Printf.sprintf
         "unknown circuit %S (not a named benchmark, chain:<n> or \
          soc:<n>[:seed])"
         spec)

let load_circuit spec =
  match spec_circuit ~max_size:max_int spec with
  | Some net -> net
  | None ->
    if Sys.file_exists spec then Dagmap_blif.Blif.read_file spec
    else
      failwith
        (Printf.sprintf
           "unknown circuit %S (not a named benchmark, not chain:<n> or \
            soc:<n>[:seed], not a file)"
           spec)

(* ------------------------------------------------------------------ *)
(* Libraries                                                           *)
(* ------------------------------------------------------------------ *)

(* Every subject node is an INV or a NAND2 of other nodes, so a
   library that cannot cover those two bare shapes leaves some node
   unmappable. The built-in libraries all can; a genlib file is
   checked here, on the one path every front end loads it through. *)
let covers_inv_and_nand2 lib =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" and y = Subject.Builder.pi b "y" in
  Subject.Builder.output b "inv" (Subject.Builder.inv b x);
  Subject.Builder.output b "nand2" (Subject.Builder.nand b x y);
  let g = Subject.Builder.finish b in
  match Mapper.map Mapper.Dag (Matchdb.prepare lib) g with
  | _ -> true
  | exception Mapper.Unmappable _ -> false

let base_library spec =
  match Libraries.by_name spec with
  | Some lib -> lib
  | None ->
    if Sys.file_exists spec then begin
      let lib =
        Libraries.make (Filename.basename spec) (Genlib_parser.parse_file spec)
      in
      if not (covers_inv_and_nand2 lib) then
        failwith
          (Printf.sprintf
             "library %s cannot cover a bare INV and NAND2 (it needs an \
              inverter and a 2-input NAND)"
             spec);
      lib
    end
    else
      failwith
        (Printf.sprintf "unknown library %S (try %s, or a genlib file)" spec
           (String.concat "/" Libraries.names))

let load_super ~base path =
  let sgl = Superlib.read_file path in
  (sgl, Superlib.augment (base sgl.Superlib.base_name) sgl)

let load_library ?super spec =
  let lib = base_library spec in
  match super with
  | None -> lib
  | Some path -> snd (load_super ~base:(fun _ -> lib) path)

(* ------------------------------------------------------------------ *)
(* Decompose and map                                                   *)
(* ------------------------------------------------------------------ *)

let decompose net = Subject.of_network net

type run = Pattern_run of Mapper.result | Cut_run of Cut_mapper.result

type result = {
  netlist : Netlist.t;
  predicted : (string * float) list;
  par : Parmap.par_stats;
  run : run;
}

let map ?(jobs = 1) engine db g =
  match engine with
  | Pattern mode ->
    let r = Mapper.map ~jobs mode db g in
    { netlist = r.Mapper.netlist;
      predicted = Mapper.predicted_arrivals r;
      par = r.Mapper.par;
      run = Pattern_run r }
  | Cut { priority } ->
    let r = Cut_mapper.map ~jobs ~priority (Matchdb.boolean db) g in
    { netlist = r.Cut_mapper.netlist;
      predicted = Cut_mapper.predicted_arrivals r;
      par = r.Cut_mapper.par;
      run = Cut_run r }
