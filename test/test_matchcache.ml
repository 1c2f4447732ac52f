(* Match enumeration and labeling against the boxed reference in
   [Oracle]: the shape index drops only patterns that cannot match,
   the labeler agrees with the reference DP, and the mode dominance
   the match classes imply holds. *)

open Dagmap_obs
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let classes = [ Matcher.Exact; Matcher.Standard; Matcher.Extended ]

(* Full-mapper agreement with the reference DP. *)
let test_mapper_agreement () =
  List.iter
    (fun (name, net) ->
      Oracle.check_modes ~name (Libraries.lib2_like ()) (Subject.of_network net))
    [ ("mult4", Generators.array_multiplier 4);
      ("cla16", Generators.carry_lookahead_adder 16);
      ("rand", Generators.random_dag ~seed:7 ~inputs:10 ~outputs:5 ~nodes:150 ()) ]

(* The process-global metrics registry aggregates per-run counters
   atomically: after a 4-domain run the registry's matches-tried
   total equals the run's own. *)
let test_global_registry_conservation () =
  let g = Subject.of_network (Generators.carry_lookahead_adder 16) in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  Metrics.reset_all ();
  let r = Mapper.map ~jobs:4 Mapper.Dag db g in
  check tbool "matches recorded" true (r.Mapper.run.Mapper.matches_tried > 0);
  check tint "registry = run across 4 domains"
    r.Mapper.run.Mapper.matches_tried
    (Option.value ~default:(-1) (Metrics.counter_value "mapper.matches_tried"))

(* ------------------------------------------------------------------ *)
(* Differential properties: tree vs dag vs dag-extended                *)
(* ------------------------------------------------------------------ *)

(* Standard matches include exact matches, and extended matches
   include standard matches, so the optimal delays must be ordered
   dag <= tree and dag-extended <= dag. *)
let qc_differential =
  QCheck.Test.make ~count:25 ~name:"differential: delay dominance"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:60 () in
      let g = Subject.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      let delay mode = Netlist.delay (Mapper.map mode db g).Mapper.netlist in
      let dt = delay Mapper.Tree in
      let dd = delay Mapper.Dag in
      let de = delay Mapper.Dag_extended in
      dd <= dt +. 1e-9 && de <= dd +. 1e-9)

(* Paper footnote 3: extended matches bring no mapping-quality gain
   over standard matches. That is an empirical tendency, not a
   theorem — Figure 1 of the paper is a counterexample shape, and
   cla16/lib2 in this repo is another (extended beats dag there) —
   so equality is pinned as a regression on circuits where it is
   known to hold. *)
let test_extended_equals_dag_footnote3 () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      List.iter
        (fun lib_name ->
          let db = Matchdb.prepare (Option.get (Libraries.by_name lib_name)) in
          let delay mode = Netlist.delay (Mapper.map mode db g).Mapper.netlist in
          check (Alcotest.float 1e-9)
            (Printf.sprintf "%s/%s: extended = dag" cname lib_name)
            (delay Mapper.Dag) (delay Mapper.Dag_extended))
        [ "minimal"; "44-1"; "lib2" ])
    [ ("adder8", Generators.ripple_adder 8);
      ("ks16", Generators.kogge_stone_adder 16);
      ("mult4", Generators.array_multiplier 4);
      ("parity16", Generators.parity 16) ]

(* ------------------------------------------------------------------ *)
(* Shape-index soundness                                               *)
(* ------------------------------------------------------------------ *)

module Pattern_ids = Hashtbl.Make (struct
  type t = Pattern.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* A match as comparable ints: (pattern's library position, pins,
   covered), so multisets compare by sorting. *)
let match_keys ids ms =
  List.sort compare
    (List.map
       (fun (m : Matcher.mtch) ->
         (Pattern_ids.find ids m.Matcher.pattern, m.Matcher.pins,
          m.Matcher.covered))
       ms)

(* The index may only drop patterns that cannot match: at every node,
   the indexed enumeration must return the same multiset of matches
   as running the matcher on every library pattern that can root a
   cover. *)
let test_index_sound () =
  let random seed nodes =
    ( Printf.sprintf "random%d" seed,
      Generators.random_dag ~seed ~inputs:10 ~outputs:8 ~nodes () )
  in
  let cases =
    [ (Libraries.lib2_like (),
       [ random 1 150; random 2 200; ("c432", Iscas_like.c432_like ());
         ("c880", Iscas_like.c880_like ()) ]);
      (Libraries.lib44_1_like (),
       [ random 3 150; ("c432", Iscas_like.c432_like ());
         ("c6288", Iscas_like.c6288_like ()) ]);
      (Option.get (Libraries.by_name "44-3"),
       [ random 4 120; ("c432", Iscas_like.c432_like ()) ]);
      (Oracle.supergates (), [ random 5 150; ("c432", Iscas_like.c432_like ()) ]) ]
  in
  List.iter
    (fun (lib, circuits) ->
      let db = Matchdb.prepare lib in
      let ids = Pattern_ids.create 1024 in
      List.iteri (fun i p -> Pattern_ids.replace ids p i) lib.Libraries.patterns;
      let rooting = Oracle.rooting lib in
      List.iter
        (fun (cname, net) ->
          let g = Subject.of_network net in
          let fanouts = Subject.fanout_counts g in
          let levels = Subject.levels g in
          List.iter
            (fun cls ->
              for node = 0 to Subject.num_nodes g - 1 do
                let brute = Oracle.node_matches rooting cls g ~fanouts node in
                let indexed = ref [] in
                ignore
                  (Mapper.for_each_node_match db cls g ~fanouts ~levels node
                     (fun m -> indexed := m :: !indexed));
                if match_keys ids !indexed <> match_keys ids brute then
                  Alcotest.failf "%s/%s/%s node %d: index differs from brute force"
                    lib.Libraries.lib_name cname (Matcher.class_name cls) node
              done)
            classes)
        circuits)
    cases

let () =
  Alcotest.run "matchcache"
    [ ( "transparency",
        [ Alcotest.test_case "mapper agreement" `Quick test_mapper_agreement;
          Alcotest.test_case "shape index = brute force" `Quick
            test_index_sound ] );
      ( "counters",
        [ Alcotest.test_case "global registry conservation" `Quick
            test_global_registry_conservation ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest qc_differential;
          Alcotest.test_case "footnote 3: extended = dag" `Quick
            test_extended_equals_dag_footnote3 ] ) ]
