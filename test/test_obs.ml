(* The observability layer: clock sanity, atomic metrics under
   concurrent domains, JSON printer/parser round-trips, span
   recording and the Chrome trace exporter — and the end-to-end
   property that turning observability on never changes a mapping. *)

open Dagmap_obs
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- clock ---------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.fail "monotonic clock stepped backwards";
    prev := t
  done;
  check tbool "since non-negative" true (Clock.since (Clock.now ()) >= -1e-9)

let test_clock_measures () =
  let spin () =
    let acc = ref 0 in
    for i = 1 to 3_000_000 do
      acc := !acc + i
    done;
    !acc
  in
  let _, wall = Clock.time spin in
  check tbool "wall positive" true (wall > 0.0);
  let _, wall2, cpu = Clock.time_wall_cpu spin in
  check tbool "cpu positive" true (cpu > 0.0);
  check tbool "wall2 positive" true (wall2 > 0.0);
  (* A single-domain spin cannot use more CPU than ~wall time. *)
  check tbool "cpu bounded by wall (1 domain)" true (cpu <= (2.0 *. wall2) +. 0.1)

let test_clock_stamp_shape () =
  let s = Clock.stamp () in
  check tint "stamp length" 15 (String.length s);
  check tbool "stamp separator" true (s.[8] = '_');
  String.iteri
    (fun i c ->
      if i <> 8 && not (c >= '0' && c <= '9') then
        Alcotest.failf "stamp %S: non-digit at %d" s i)
    s

(* --- resource -------------------------------------------------------- *)

let test_peak_rss () =
  (* A running test binary has certainly touched more than a megabyte,
     and the high-water mark never decreases. *)
  let a = Resource.peak_rss_bytes () in
  check tbool "positive and plausible" true (a > 1_048_576);
  let ballast = Array.make (4 * 1024 * 1024) 0 in
  let b = Resource.peak_rss_bytes () in
  ignore (Sys.opaque_identity ballast);
  check tbool "monotone" true (b >= a)

(* --- metrics under concurrent domains ------------------------------- *)

let hammer n_domains per_domain f =
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              f d i
            done))
  in
  List.iter Domain.join domains

let test_counter_atomic_across_domains () =
  (* The bug this layer fixes: [mutable int] counters lose updates
     under concurrent increments. 4 domains x 200k increments must
     land exactly. *)
  let c = Metrics.Counter.create () in
  hammer 4 200_000 (fun _ _ -> Metrics.Counter.incr c);
  check tint "no lost increments" 800_000 (Metrics.Counter.value c);
  Metrics.Counter.reset c;
  check tint "reset" 0 (Metrics.Counter.value c)

let test_registry_counter_shared_across_domains () =
  Metrics.reset_all ();
  (* All domains resolve the same name concurrently and bump it; the
     find-or-create path and the increments must both be safe. *)
  hammer 4 50_000 (fun _ _ ->
      Metrics.Counter.incr (Metrics.counter "test.obs.shared"));
  check (Alcotest.option tint) "shared total" (Some 200_000)
    (Metrics.counter_value "test.obs.shared")

let test_gauge_atomic_add () =
  let g = Metrics.Gauge.create () in
  (* Sums of small integers are exact in binary floating point. *)
  hammer 4 50_000 (fun _ _ -> Metrics.Gauge.add g 1.0);
  check (Alcotest.float 0.0) "gauge add exact" 200_000.0 (Metrics.Gauge.value g);
  let m = Metrics.Gauge.create () in
  hammer 4 1_000 (fun d i -> Metrics.Gauge.max_update m (float_of_int (d * i)));
  check (Alcotest.float 0.0) "gauge max" 3_000.0 (Metrics.Gauge.value m)

let test_histogram () =
  let h = Metrics.Histogram.create () in
  hammer 2 10_000 (fun _ _ -> Metrics.Histogram.observe h 0.5);
  check tint "count" 20_000 (Metrics.Histogram.count h);
  check (Alcotest.float 1e-6) "mean" 0.5 (Metrics.Histogram.mean h);
  check (Alcotest.float 0.0) "max" 0.5 (Metrics.Histogram.max_value h)

let test_registry_semantics () =
  Metrics.reset_all ();
  let c1 = Metrics.counter "test.obs.same" in
  let c2 = Metrics.counter "test.obs.same" in
  Metrics.Counter.incr c1;
  check tint "find-or-create returns one instance" 1
    (Metrics.Counter.value c2);
  (match Metrics.gauge "test.obs.same" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "type mismatch accepted");
  check tbool "names sorted and present" true
    (let ns = Metrics.names () in
     List.mem "test.obs.same" ns && List.sort compare ns = ns);
  Metrics.reset_all ();
  check (Alcotest.option tint) "reset_all zeroes" (Some 0)
    (Metrics.counter_value "test.obs.same");
  (* The registry snapshot itself must be well-formed JSON. *)
  match Json.parse (Json.to_string (Metrics.to_json ())) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "metrics snapshot is not an object"

(* --- JSON ------------------------------------------------------------ *)

(* Structural equality up to Int/Float coercion: the printer renders
   integral floats without a fraction, so they re-parse as Int. *)
let rec json_same a b =
  match a, b with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.String x, Json.String y -> x = y
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) ->
    let n v = Option.get (Json.to_number v) in
    let x = n a and y = n b in
    x = y || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_same xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_same v1 v2)
         xs ys
  | _ -> false

let test_json_round_trips () =
  let doc =
    Json.Obj
      [ ("s", Json.String "a \"quoted\"\n\ttab \\ slash \x01");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("fi", Json.Float 3.0);
        ("big", Json.Float 6.02214076e23);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]) ]
  in
  check tbool "compact round-trip" true
    (json_same doc (Json.parse (Json.to_string doc)));
  check tbool "pretty round-trip" true
    (json_same doc (Json.parse (Json.to_string ~pretty:true doc)))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "parsed garbage %S" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated"; "{\"a\" 1}" ]

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun x -> Json.Float x) (float_bound_inclusive 1e6);
        map
          (fun s -> Json.String s)
          (string_size ~gen:(char_range ' ' '~') (int_bound 12)) ]
  in
  let rec doc depth =
    if depth = 0 then scalar
    else
      frequency
        [ (2, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (doc (depth - 1))));
          ( 1,
            map
              (fun l ->
                (* Object keys must be distinct for round-trip
                   comparison (assoc order is preserved). *)
                Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
              (list_size (int_bound 4) (doc (depth - 1))) ) ]
  in
  doc 3

let qc_json_round_trip =
  QCheck.Test.make ~count:300 ~name:"json: parse (to_string doc) = doc"
    (QCheck.make ~print:(fun d -> Json.to_string ~pretty:true d) json_gen)
    (fun doc ->
      json_same doc (Json.parse (Json.to_string doc))
      && json_same doc (Json.parse (Json.to_string ~pretty:true doc)))

(* --- spans ----------------------------------------------------------- *)

let with_tracing f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    f

let test_span_disabled_records_nothing () =
  Span.reset ();
  check tbool "disabled by default" false (Span.is_enabled ());
  let r = Span.with_span "quiet" (fun () -> 7) in
  check tint "thunk runs" 7 r;
  check tint "nothing recorded" 0 (List.length (Span.events ()))

let test_span_nesting_and_export () =
  with_tracing (fun () ->
      let r =
        Span.with_span "outer" (fun () ->
            let a = Span.with_span "inner1" (fun () -> 1) in
            let b = Span.with_span ~cat:"c2" "inner2" (fun () -> 2) in
            a + b)
      in
      check tint "nested result" 3 r;
      (match Span.events () with
       | [ outer; i1; i2 ] ->
         check Alcotest.string "parent first" "outer" outer.Span.ev_name;
         check Alcotest.string "inner order" "inner1" i1.Span.ev_name;
         check Alcotest.string "inner order" "inner2" i2.Span.ev_name;
         let fin e = Int64.add e.Span.ev_ts_ns e.Span.ev_dur_ns in
         check tbool "children within parent" true
           (i1.Span.ev_ts_ns >= outer.Span.ev_ts_ns
           && fin i2 <= fin outer
           && fin i1 <= i2.Span.ev_ts_ns)
       | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
      (* Export parses and carries complete events in microseconds. *)
      let doc = Json.parse (Json.to_string (Span.export_chrome ())) in
      let evs =
        Option.get (Json.to_list (Option.get (Json.member "traceEvents" doc)))
      in
      check tint "3 exported" 3 (List.length evs);
      List.iter
        (fun e ->
          check (Alcotest.option Alcotest.string) "complete event" (Some "X")
            (Option.bind (Json.member "ph" e) Json.to_string_value);
          List.iter
            (fun f ->
              if Option.bind (Json.member f e) Json.to_number = None then
                Alcotest.failf "event missing %s" f)
            [ "ts"; "dur"; "pid"; "tid" ])
        evs)

let test_span_records_on_raise () =
  with_tracing (fun () ->
      (match Span.with_span "boom" (fun () -> failwith "x") with
       | exception Failure _ -> ()
       | _ -> Alcotest.fail "exception swallowed");
      check tint "span recorded despite raise" 1 (List.length (Span.events ())))

(* --- observability is transparent to the mapper ---------------------- *)

(* Same-tid spans must properly nest: walk the sorted events with a
   stack of open intervals; partial overlap is a failure. *)
let properly_nested evs =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (tid, ts, dur) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid tid) in
      Hashtbl.replace by_tid tid ((ts, Int64.add ts dur) :: prev))
    evs;
  Hashtbl.fold
    (fun _ intervals acc ->
      let intervals = List.rev intervals in
      let stack = ref [] in
      acc
      && List.for_all
           (fun (ts, fin) ->
             let rec pop () =
               match !stack with
               | top_fin :: rest when top_fin <= ts ->
                 stack := rest;
                 pop ()
               | _ -> ()
             in
             pop ();
             match !stack with
             | [] ->
               stack := [ fin ];
               true
             | top_fin :: _ ->
               if fin <= top_fin then begin
                 stack := fin :: !stack;
                 true
               end
               else false)
           intervals)
    by_tid true

let qc_obs_transparent =
  QCheck.Test.make ~count:8
    ~name:"obs on/off: identical covers, well-formed exports (mode x jobs)"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:60 () in
      let g = Subject.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      List.for_all
        (fun mode ->
          List.for_all
            (fun jobs ->
              let run () = Mapper.map ~jobs mode db g in
              Span.set_enabled false;
              let r_off = run () in
              Span.reset ();
              Span.set_enabled true;
              Metrics.reset_all ();
              let r_on =
                Fun.protect
                  ~finally:(fun () -> Span.set_enabled false)
                  run
              in
              (* Exports: the trace re-parses, timestamps are sorted,
                 spans nest per domain; the metrics snapshot re-parses
                 and counts exactly this one map. *)
              let doc = Json.parse (Json.to_string (Span.export_chrome ())) in
              let evs =
                Option.get
                  (Json.to_list (Option.get (Json.member "traceEvents" doc)))
              in
              let num f e =
                Option.get (Option.bind (Json.member f e) Json.to_number)
              in
              let ts_list = List.map (num "ts") evs in
              let sorted = List.sort compare ts_list = ts_list in
              let raw =
                List.map
                  (fun e ->
                    ( int_of_float (num "tid" e),
                      Int64.of_float (num "ts" e *. 1_000.0),
                      Int64.of_float (num "dur" e *. 1_000.0) ))
                  evs
              in
              let m =
                Json.parse (Json.to_string (Metrics.to_json ()))
              in
              let cnt name =
                match Option.bind (Json.member name m) Json.to_number with
                | Some x -> int_of_float x
                | None -> 0
              in
              Span.reset ();
              evs <> [] && sorted
              && properly_nested raw
              && cnt "mapper.maps" = 1
              (* The run itself is bit-identical. *)
              && r_off.Mapper.labels = r_on.Mapper.labels
              && Netlist.delay r_off.Mapper.netlist
                 = Netlist.delay r_on.Mapper.netlist
              && Netlist.num_gates r_off.Mapper.netlist
                 = Netlist.num_gates r_on.Mapper.netlist)
            [ 1; 4 ])
        [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ])

let () =
  Alcotest.run "obs"
    [ ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "measures" `Quick test_clock_measures;
          Alcotest.test_case "stamp shape" `Quick test_clock_stamp_shape;
          Alcotest.test_case "peak rss" `Quick test_peak_rss ] );
      ( "metrics",
        [ Alcotest.test_case "counter across domains" `Quick
            test_counter_atomic_across_domains;
          Alcotest.test_case "registry counter across domains" `Quick
            test_registry_counter_shared_across_domains;
          Alcotest.test_case "gauge add/max" `Quick test_gauge_atomic_add;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "registry semantics" `Quick
            test_registry_semantics ] );
      ( "json",
        [ Alcotest.test_case "round trips" `Quick test_json_round_trips;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest qc_json_round_trip ] );
      ( "spans",
        [ Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "nesting and export" `Quick
            test_span_nesting_and_export;
          Alcotest.test_case "records on raise" `Quick
            test_span_records_on_raise ] );
      ( "transparency", [ QCheck_alcotest.to_alcotest qc_obs_transparent ] ) ]
