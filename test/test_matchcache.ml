(* The structural match cache: counter consistency, cache-on vs
   cache-off observational equality, and the differential properties
   (tree/dag/dag-extended dominance) under both cache settings. *)

open Dagmap_obs
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let classes = [ Matcher.Exact; Matcher.Standard; Matcher.Extended ]

(* A row of structurally identical (but unshared) full-adder-like
   cells over distinct PIs: the raw builders prevent structural
   hashing from merging them, so every cell is a fresh isomorphic
   cone — the cache's best case. *)
let cell_row n_cells =
  let bld = Subject.Builder.create () in
  List.iteri
    (fun i () ->
      let a = Subject.Builder.pi bld (Printf.sprintf "a%d" i) in
      let b = Subject.Builder.pi bld (Printf.sprintf "b%d" i) in
      let c = Subject.Builder.pi bld (Printf.sprintf "c%d" i) in
      let ab = Subject.Builder.raw_nand bld a b in
      let bc = Subject.Builder.raw_nand bld b c in
      let s = Subject.Builder.raw_nand bld ab bc in
      let t = Subject.Builder.raw_inv bld s in
      let u = Subject.Builder.raw_nand bld s t in
      Subject.Builder.output bld (Printf.sprintf "o%d" i) u)
    (List.init n_cells (fun _ -> ()));
  Subject.Builder.finish bld

let same_match (m1 : Matcher.mtch) (m2 : Matcher.mtch) =
  m1.Matcher.pattern == m2.Matcher.pattern
  && m1.Matcher.pins = m2.Matcher.pins
  && m1.Matcher.covered = m2.Matcher.covered

let same_match_list l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 same_match l1 l2

(* Cache-on and cache-off enumeration must return identical match
   lists, in identical order, at every node, for every class. *)
let test_cache_transparent () =
  let graphs =
    [ ("cells", cell_row 6);
      ("adder8", Subject.of_network (Generators.ripple_adder 8));
      ("ks8", Subject.of_network (Generators.kogge_stone_adder 8)) ]
  in
  List.iter
    (fun lib_name ->
      let db = Matchdb.prepare (Option.get (Libraries.by_name lib_name)) in
      List.iter
        (fun (gname, g) ->
          let fanouts = Subject.fanout_counts g in
          let levels = Subject.levels g in
          List.iter
            (fun cls ->
              let cache = Matchdb.create_cache db in
              for node = 0 to Subject.num_nodes g - 1 do
                let plain =
                  Matchdb.node_matches db cls g ~fanouts ~levels node
                in
                let cached =
                  Matchdb.node_matches ~cache db cls g ~fanouts ~levels node
                in
                check tbool
                  (Printf.sprintf "%s/%s/%s node %d: cached = uncached"
                     lib_name gname (Matcher.class_name cls) node)
                  true
                  (same_match_list plain cached)
              done)
            classes)
        graphs)
    [ "minimal"; "44-1"; "lib2" ]

(* Looking every node up twice through one cache: second pass must be
   all hits, and the counters must stay consistent. *)
let test_counters () =
  let g = cell_row 8 in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let cache = Matchdb.create_cache db in
  let gate_nodes = ref 0 in
  for node = 0 to Subject.num_nodes g - 1 do
    match Subject.kind g node with
    | Subject.Spi -> ()
    | Subject.Snand _ | Subject.Sinv _ ->
      incr gate_nodes;
      ignore (Matchdb.node_matches ~cache db Matcher.Standard g ~fanouts ~levels node)
  done;
  let h1 = Matchdb.cache_hits cache in
  check tint "lookups = gate nodes" !gate_nodes (Matchdb.cache_lookups cache);
  check tint "hits + misses = lookups"
    (Matchdb.cache_lookups cache)
    (Matchdb.cache_hits cache + Matchdb.cache_misses cache);
  check tbool "isomorphic cells hit" true (h1 > 0);
  check tbool "first cell misses" true (Matchdb.cache_misses cache > 0);
  (* Second pass: every cone is already cached. *)
  for node = 0 to Subject.num_nodes g - 1 do
    match Subject.kind g node with
    | Subject.Spi -> ()
    | Subject.Snand _ | Subject.Sinv _ ->
      ignore (Matchdb.node_matches ~cache db Matcher.Standard g ~fanouts ~levels node)
  done;
  check tint "second pass all hits"
    (h1 + !gate_nodes)
    (Matchdb.cache_hits cache);
  check tint "hits + misses = lookups (after)"
    (Matchdb.cache_lookups cache)
    (Matchdb.cache_hits cache + Matchdb.cache_misses cache);
  (* PI lookups are free and uncounted. *)
  let before = Matchdb.cache_lookups cache in
  List.iter
    (fun pi ->
      check tint "pi has no matches" 0
        (List.length
           (Matchdb.node_matches ~cache db Matcher.Standard g ~fanouts ~levels pi)))
    (Subject.pi_ids g);
  check tint "pi lookups uncounted" before (Matchdb.cache_lookups cache)

(* reset_counters gives per-run stats over a shared (warm) cache:
   after a reset, a second identical run reports only its own
   lookups, and — with the table kept — reports them as all hits. *)
let test_reset_counters () =
  let g = cell_row 8 in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let fanouts = Subject.fanout_counts g in
  let levels = Subject.levels g in
  let cache = Matchdb.create_cache db in
  let sweep () =
    for node = 0 to Subject.num_nodes g - 1 do
      match Subject.kind g node with
      | Subject.Spi -> ()
      | Subject.Snand _ | Subject.Sinv _ ->
        ignore
          (Matchdb.node_matches ~cache db Matcher.Standard g ~fanouts ~levels
             node)
    done
  in
  sweep ();
  let run1_lookups = Matchdb.cache_lookups cache in
  check tbool "first run looked things up" true (run1_lookups > 0);
  Matchdb.reset_counters cache;
  check tint "counters zeroed" 0
    (Matchdb.cache_lookups cache + Matchdb.cache_hits cache
    + Matchdb.cache_misses cache);
  sweep ();
  check tint "second run reports per-run lookups" run1_lookups
    (Matchdb.cache_lookups cache);
  check tint "second run is all hits (warm table kept)" run1_lookups
    (Matchdb.cache_hits cache);
  check tint "hits + misses = lookups after reset"
    (Matchdb.cache_lookups cache)
    (Matchdb.cache_hits cache + Matchdb.cache_misses cache);
  check tbool "cache not retired by the good workload" false
    (Matchdb.cache_retired cache)

(* Full-mapper agreement: cached and uncached runs produce the same
   labels, delay and netlist size; stats record the cache activity. *)
let test_mapper_cache_identical () =
  List.iter
    (fun (cname, net) ->
      let g = Subject.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      List.iter
        (fun mode ->
          let r_off = Mapper.map ~cache:false mode db g in
          let r_on = Mapper.map mode db g in
          check tbool
            (Printf.sprintf "%s/%s labels identical" cname (Mapper.mode_name mode))
            true
            (r_off.Mapper.labels = r_on.Mapper.labels);
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s/%s delay identical" cname (Mapper.mode_name mode))
            (Netlist.delay r_off.Mapper.netlist)
            (Netlist.delay r_on.Mapper.netlist);
          check tint
            (Printf.sprintf "%s/%s gates identical" cname (Mapper.mode_name mode))
            (Netlist.num_gates r_off.Mapper.netlist)
            (Netlist.num_gates r_on.Mapper.netlist);
          check tint
            (Printf.sprintf "%s/%s matches tried identical" cname
               (Mapper.mode_name mode))
            r_off.Mapper.run.Mapper.matches_tried
            r_on.Mapper.run.Mapper.matches_tried;
          check tint "cache-off counts nothing" 0
            r_off.Mapper.run.Mapper.cache_lookups;
          check tint
            (Printf.sprintf "%s/%s stats consistent" cname (Mapper.mode_name mode))
            r_on.Mapper.run.Mapper.cache_lookups
            (r_on.Mapper.run.Mapper.cache_hits
            + r_on.Mapper.run.Mapper.cache_misses))
        [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ])
    [ ("mult4", Generators.array_multiplier 4);
      ("cla16", Generators.carry_lookahead_adder 16);
      ("rand", Generators.random_dag ~seed:7 ~inputs:10 ~outputs:5 ~nodes:150 ()) ]

(* The process-global metrics registry aggregates the per-cache
   counters atomically across worker domains. The conservation law
   must hold exactly after a 4-domain run — with [mutable int]
   counters it lost updates under contention. *)
let test_global_registry_conservation () =
  let g = Subject.of_network (Generators.carry_lookahead_adder 16) in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  Metrics.reset_all ();
  ignore (Parmap.map ~jobs:4 Mapper.Dag db g);
  let v name = Option.value ~default:(-1) (Metrics.counter_value name) in
  check tbool "global lookups recorded" true (v "matchdb.cache.lookups" > 0);
  check tint "lookups = hits + misses across 4 domains"
    (v "matchdb.cache.lookups")
    (v "matchdb.cache.hits" + v "matchdb.cache.misses")

(* ------------------------------------------------------------------ *)
(* Differential properties: tree vs dag vs dag-extended, cache x2     *)
(* ------------------------------------------------------------------ *)

(* Standard matches include exact matches, and extended matches
   include standard matches, so the optimal delays must be ordered
   dag <= tree and dag-extended <= dag — under either cache setting,
   whose delays must also agree with each other. *)
let qc_differential =
  QCheck.Test.make ~count:25 ~name:"differential: delay dominance, cached+uncached"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:60 () in
      let g = Subject.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      let delay ~cache mode =
        Netlist.delay (Mapper.map ~cache mode db g).Mapper.netlist
      in
      let check_config cache =
        let dt = delay ~cache Mapper.Tree in
        let dd = delay ~cache Mapper.Dag in
        let de = delay ~cache Mapper.Dag_extended in
        dd <= dt +. 1e-9 && de <= dd +. 1e-9
      in
      check_config true && check_config false
      && delay ~cache:true Mapper.Dag = delay ~cache:false Mapper.Dag)

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
          List.iter
            (fun cache ->
              let dd =
                Netlist.delay (Mapper.map ~cache Mapper.Dag db g).Mapper.netlist
              in
              let de =
                Netlist.delay
                  (Mapper.map ~cache Mapper.Dag_extended db g).Mapper.netlist
              in
              check (Alcotest.float 1e-9)
                (Printf.sprintf "%s/%s cache=%b: extended = dag" cname lib_name
                   cache)
                dd de)
            [ true; false ])
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
   the indexed enumeration (boxed and arena, uncached) must return the
   same multiset of matches as running the matcher on every library
   pattern that can root a cover. *)
let test_index_sound () =
  let supergates () =
    let base = Libraries.lib44_1_like () in
    let bounds =
      { Dagmap_super.Superenum.default_bounds with max_pins = 4; max_size = 3 }
    in
    let sgl, _ = Dagmap_super.Superlib.make ~bounds base in
    Dagmap_super.Superlib.augment base sgl
  in
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
      (supergates (), [ random 5 150; ("c432", Iscas_like.c432_like ()) ]) ]
  in
  List.iter
    (fun (lib, circuits) ->
      let db = Matchdb.prepare lib in
      let ids = Pattern_ids.create 1024 in
      List.iteri (fun i p -> Pattern_ids.replace ids p i) lib.Libraries.patterns;
      let rooting =
        List.filter
          (fun p ->
            match p.Pattern.nodes.(p.Pattern.root) with
            | Pattern.Pleaf _ -> false
            | Pattern.Pinv _ | Pattern.Pnand _ -> true)
          lib.Libraries.patterns
      in
      List.iter
        (fun (cname, net) ->
          let g = Subject.of_network net in
          let a = Arena.of_subject g in
          let fanouts = Subject.fanout_counts g in
          let levels = Subject.levels g in
          let afanouts = Arena.fanout_counts a in
          let alevels = Arena.levels a in
          List.iter
            (fun cls ->
              for node = 0 to Subject.num_nodes g - 1 do
                let brute =
                  List.concat_map
                    (fun p -> Matcher.matches cls g ~fanouts p node)
                    rooting
                in
                let boxed =
                  Matchdb.node_matches db cls g ~fanouts ~levels node
                in
                let arena = ref [] in
                ignore
                  (Arena_map.for_each_node_match db cls a ~fanouts:afanouts
                     ~levels:alevels node (fun m -> arena := m :: !arena));
                let want = match_keys ids brute in
                let where =
                  Printf.sprintf "%s/%s/%s node %d" lib.Libraries.lib_name
                    cname (Matcher.class_name cls) node
                in
                if match_keys ids boxed <> want then
                  Alcotest.failf "%s: boxed index differs from brute force"
                    where;
                if match_keys ids !arena <> want then
                  Alcotest.failf "%s: arena index differs from brute force"
                    where
              done)
            classes)
        circuits)
    cases

let () =
  Alcotest.run "matchcache"
    [ ( "transparency",
        [ Alcotest.test_case "cached = uncached lists" `Quick
            test_cache_transparent;
          Alcotest.test_case "mapper agreement" `Quick
            test_mapper_cache_identical;
          Alcotest.test_case "shape index = brute force" `Quick
            test_index_sound ] );
      ( "counters",
        [ Alcotest.test_case "hit/miss bookkeeping" `Quick test_counters;
          Alcotest.test_case "per-run reset" `Quick test_reset_counters;
          Alcotest.test_case "global registry conservation" `Quick
            test_global_registry_conservation ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest qc_differential;
          Alcotest.test_case "footnote 3: extended = dag" `Quick
            test_extended_equals_dag_footnote3 ] ) ]
