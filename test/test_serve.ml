(* techmapd: wire-protocol round-trips, the malformed-request
   catalog (the daemon must answer with a structured error and stay
   alive), end-to-end mapping equality against the in-process
   mapper, backpressure, and graceful drain. Every live test runs a
   real Server.t on its own temp socket. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_obs
open Dagmap_flow
open Dagmap_serve

let check = Alcotest.check
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Protocol: parse/encode                                              *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck.Gen.(
    string_size ~gen:
      (oneof
         [ char_range 'a' 'z';
           char_range 'A' 'Z';
           char_range '0' '9';
           oneofl [ '_'; '-'; ':'; '.'; '=' ] ])
      (int_range 1 12))

let request_gen =
  QCheck.Gen.(
    let* verb =
      oneofl
        [ Proto.Ping; Proto.Map; Proto.Check; Proto.Sta; Proto.Stats;
          Proto.Shutdown ]
    in
    let* id = opt value_gen in
    let* circuit = opt value_gen in
    let* payload = opt (int_range 0 Proto.max_payload) in
    let* lib = opt value_gen in
    let* mode = opt value_gen in
    let* audit = bool in
    let* want_blif = bool in
    let* metrics = bool in
    let+ deadline_ms = opt (int_range 1 3_600_000) in
    { Proto.verb; id; circuit; payload; lib; mode; audit;
      want_blif; metrics; deadline_ms })

let qc_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/parse round-trip"
    (QCheck.make request_gen) (fun req ->
      let line = Proto.encode_request req in
      match Proto.parse_request line with
      | Ok parsed -> parsed = req
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e.Proto.message)

let test_parse_errors () =
  let fatal line =
    match Proto.parse_request line with
    | Error e -> Some e.Proto.fatal
    | Ok _ -> None
  in
  check (Alcotest.option tbool) "empty line" (Some false) (fatal "");
  check (Alcotest.option tbool) "malformed pair" (Some false)
    (fatal "map foo");
  check (Alcotest.option tbool) "unknown verb, no payload" (Some false)
    (fatal "frobnicate id=1");
  check (Alcotest.option tbool) "unknown verb with payload" (Some true)
    (fatal "frobnicate payload=12");
  check (Alcotest.option tbool) "payload not a number" (Some true)
    (fatal "map payload=banana");
  check (Alcotest.option tbool) "payload too large" (Some true)
    (fatal (Printf.sprintf "map payload=%d" (Proto.max_payload + 1)));
  check (Alcotest.option tbool) "negative payload" (Some true)
    (fatal "map payload=-3");
  check (Alcotest.option tbool) "bad flag" (Some false) (fatal "map audit=yes");
  (match Proto.parse_request "map unknown_key=whatever circuit=c432" with
   | Ok r -> check (Alcotest.option tstr) "unknown keys skipped"
               (Some "c432") r.Proto.circuit
   | Error _ -> Alcotest.fail "unknown key should be ignored");
  check tbool "encode rejects spaces" true
    (match
       Proto.encode_request
         { (Proto.request Proto.Map) with Proto.id = Some "a b" }
     with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Live server harness                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "techmapd_test_%d_%d.sock" (Unix.getpid ()) !n)

let resolver spec =
  match String.split_on_char ':' spec with
  | [ "chain"; n ] -> Generators.nand_chain (int_of_string n)
  | [ "rand"; seed ] ->
    Generators.random_dag ~seed:(int_of_string seed) ~nodes:60 ()
  | _ -> failwith ("no such circuit " ^ spec)

let with_server ?(resolver = resolver) ?(jobs = 2) ?(queue = 4)
    ?(io_timeout = 0.0) ?(idle_timeout = 0.0) ?(job_budget = 0.0)
    ?(faults = Faultplan.none) f =
  let sock = fresh_sock () in
  let srv =
    Server.create
      { Server.socket_path = sock;
        jobs;
        queue_max = queue;
        libraries =
          [ ("lib2", Libraries.lib2_like ());
            ("minimal", Libraries.minimal ()) ];
        resolve_circuit = Some resolver;
        verbose = false;
        io_timeout_s = io_timeout;
        idle_timeout_s = idle_timeout;
        job_budget_s = job_budget;
        faults }
  in
  let th = Thread.create Server.run srv in
  let finally () =
    Server.stop srv;
    Thread.join th;
    check tbool "socket removed after drain" false (Sys.file_exists sock)
  in
  Fun.protect ~finally (fun () -> f sock srv)

let status reply =
  Option.value ~default:"?"
    (Option.bind (Json.member "status" reply) Json.to_string_value)

let str_field name reply =
  Option.bind (Json.member name reply) Json.to_string_value

let num_field name reply =
  match Option.bind (Json.member name reply) Json.to_number with
  | Some x -> x
  | None -> Alcotest.fail (Printf.sprintf "reply without %s" name)

let ping_ok c =
  let reply = Client.request c (Proto.request Proto.Ping) in
  check tstr "ping" "ok" (status reply)

(* ------------------------------------------------------------------ *)
(* Malformed-request catalog                                           *)
(* ------------------------------------------------------------------ *)

let test_malformed_catalog () =
  with_server @@ fun sock _srv ->
  (* Garbage verb: structured error, same connection keeps working. *)
  let c = Client.connect sock in
  Client.send_raw c "!!! definitely not protocol\n";
  let r = Client.read_reply c in
  check tstr "garbage verb status" "error" (status r);
  check (Alcotest.option tstr) "garbage verb code" (Some "bad_request")
    (str_field "code" r);
  ping_ok c;
  Client.send_raw c "frobnicate id=1\n";
  check (Alcotest.option tstr) "unknown verb code" (Some "unknown_verb")
    (str_field "code" (Client.read_reply c));
  ping_ok c;
  (* Garbage bytes (invalid UTF-8 is fine, it is a byte protocol):
     still a structured error, connection lives. *)
  Client.send_raw c "\xff\xfe\xaa bla=1\n";
  check tstr "garbage bytes -> error" "error" (status (Client.read_reply c));
  ping_ok c;
  (* Malformed pair and empty line: non-fatal. *)
  Client.send_raw c "map foo\n";
  check (Alcotest.option tstr) "malformed pair" (Some "bad_request")
    (str_field "code" (Client.read_reply c));
  Client.send_raw c "\n";
  check tstr "empty line -> error" "error" (status (Client.read_reply c));
  ping_ok c;
  (* Bad BLIF payload: semantic error, connection lives. *)
  let junk = ".model broken\nthis line is not BLIF\n" in
  let r =
    Client.request c ~payload:junk { (Proto.request Proto.Map) with
                                     Proto.id = Some "b1" }
  in
  check (Alcotest.option tstr) "bad blif code" (Some "blif_parse")
    (str_field "code" r);
  check (Alcotest.option tstr) "id echoed on error" (Some "b1")
    (str_field "id" r);
  ping_ok c;
  (* Unknown lib / mode / circuit: structured, connection lives. *)
  let r =
    Client.request c
      { (Proto.request Proto.Map) with
        Proto.circuit = Some "rand:1"; lib = Some "nosuchlib" }
  in
  check (Alcotest.option tstr) "unknown lib" (Some "unknown_lib")
    (str_field "code" r);
  let r =
    Client.request c
      { (Proto.request Proto.Map) with
        Proto.circuit = Some "rand:1"; mode = Some "quantum" }
  in
  check (Alcotest.option tstr) "unknown mode" (Some "unknown_mode")
    (str_field "code" r);
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "bogus:9" }
  in
  check (Alcotest.option tstr) "unknown circuit" (Some "unknown_circuit")
    (str_field "code" r);
  (* No payload and no circuit at all. *)
  let r = Client.request c (Proto.request Proto.Map) in
  check (Alcotest.option tstr) "no input" (Some "bad_request")
    (str_field "code" r);
  ping_ok c;
  Client.close c;
  (* Oversized declared payload: fatal — reply then close. The daemon
     itself survives (fresh connection works). *)
  let c = Client.connect sock in
  Client.send_raw c
    (Printf.sprintf "map payload=%d\n" (Proto.max_payload + 1));
  let r = Client.read_reply c in
  check (Alcotest.option tstr) "oversized payload" (Some "payload_too_large")
    (str_field "code" r);
  check tbool "connection closed after fatal" true
    (match Client.read_reply c with
     | _ -> false
     | exception Failure _ -> true);
  Client.close c;
  (* Truncated payload: declare more bytes than we send, half-close.
     The reply still arrives on the open receive side. *)
  let c = Client.connect sock in
  Client.send_raw c "map payload=4096\nonly these bytes";
  Client.half_close c;
  let r = Client.read_reply c in
  check (Alcotest.option tstr) "truncated payload"
    (Some "truncated_payload") (str_field "code" r);
  Client.close c;
  (* Header cut off mid-line by a half-close. *)
  let c = Client.connect sock in
  Client.send_raw c "map circuit=ra";
  Client.half_close c;
  check (Alcotest.option tstr) "truncated header" (Some "truncated_header")
    (str_field "code" (Client.read_reply c));
  Client.close c;
  (* Oversized header line. *)
  let c = Client.connect sock in
  Client.send_raw c ("map id=" ^ String.make Proto.max_header 'x' ^ "\n");
  check (Alcotest.option tstr) "oversized header" (Some "header_too_long")
    (str_field "code" (Client.read_reply c));
  Client.close c;
  (* Premature close with nothing sent: not even a reply expected;
     the daemon just must survive it. *)
  let c = Client.connect sock in
  Client.close c;
  let c = Client.connect sock in
  ping_ok c;
  Client.close c

(* ------------------------------------------------------------------ *)
(* End-to-end semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_map_matches_local () =
  with_server @@ fun sock _srv ->
  let net = Generators.random_dag ~seed:11 ~nodes:80 () in
  let payload = Dagmap_blif.Blif.write_network net in
  let c = Client.connect sock in
  let reply =
    Client.request c ~payload
      { (Proto.request Proto.Map) with Proto.audit = true }
  in
  check tstr "map ok" "ok" (status reply);
  check (Alcotest.option tstr) "audit clean" (Some "ok")
    (str_field "audit" reply);
  (* The daemon must agree exactly with an in-process map of the same
     bytes under the same (default) library and mode. *)
  let local_net = Dagmap_blif.Blif.read_string ~file:"<local>" payload in
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let local =
    Mapper.map Mapper.Dag db (Subject.of_network local_net)
  in
  check (Alcotest.float 0.0) "delay identical"
    (Netlist.delay local.Mapper.netlist)
    (num_field "delay" reply);
  check (Alcotest.float 0.0) "area identical"
    (Netlist.area local.Mapper.netlist)
    (num_field "area" reply);
  (* check and sta verbs answer over the same circuit. *)
  let r = Client.request c ~payload (Proto.request Proto.Check) in
  check tstr "check ok" "ok" (status r);
  check tbool "check clean" true
    (Json.member "clean" r = Some (Json.Bool true));
  let r = Client.request c ~payload (Proto.request Proto.Sta) in
  check tstr "sta ok" "ok" (status r);
  check (Alcotest.float 0.0) "sta worst = mapped delay"
    (Netlist.delay local.Mapper.netlist)
    (num_field "worst_delay" r);
  (* stats reflects the traffic. *)
  let r = Client.request c (Proto.request Proto.Stats) in
  check tstr "stats ok" "ok" (status r);
  check tbool "stats served > 0" true (num_field "served" r > 0.0);
  Client.close c

(* Clients from before the match cache was removed still send
   [cache=0]: the key parses as an ignored unknown key and the map is
   served exactly like one without it. *)
let test_legacy_cache_key () =
  check tbool "cache=0 parses to the default request" true
    (Proto.parse_request "map circuit=rand:3 cache=0"
     = Ok { (Proto.request Proto.Map) with Proto.circuit = Some "rand:3" });
  with_server @@ fun sock _srv ->
  let c = Client.connect sock in
  Client.send_raw c "map circuit=rand:3 cache=0\n";
  let legacy = Client.read_reply c in
  check tstr "legacy map ok" "ok" (status legacy);
  let plain =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "rand:3" }
  in
  check (Alcotest.float 0.0) "same delay" (num_field "delay" plain)
    (num_field "delay" legacy);
  check (Alcotest.float 0.0) "same area" (num_field "area" plain)
    (num_field "area" legacy);
  Client.close c

let test_server_side_circuit_and_blif_reply () =
  with_server @@ fun sock _srv ->
  let c = Client.connect sock in
  let reply =
    Client.request c
      { (Proto.request Proto.Map) with
        Proto.circuit = Some "rand:3"; want_blif = true; lib = Some "minimal" }
  in
  check tstr "server-side circuit ok" "ok" (status reply);
  let blif =
    match str_field "blif" reply with
    | Some s -> s
    | None -> Alcotest.fail "no blif in reply"
  in
  (* The reply carries gate-level netlist BLIF: one .gate line per
     mapped instance (the logic-level reader skips .gate, so this is
     a structural check, not a re-parse). *)
  let count_gate_lines s =
    List.length
      (List.filter
         (fun l -> String.length l > 6 && String.sub l 0 6 = ".gate ")
         (String.split_on_char '\n' s))
  in
  check tbool "reply blif has a model header" true
    (String.length blif > 13 && String.sub blif 0 13 = ".model mapped");
  check Alcotest.int "one .gate line per mapped instance"
    (int_of_float (num_field "gates" reply))
    (count_gate_lines blif);
  Client.close c

(* techmap serve resolves circuit= with Flow.circuit_of_spec: named
   benchmarks and generators only. A path to a file on the daemon's
   host is an unknown circuit, and the reply never quotes the file. *)
let test_spec_only_resolver () =
  let secret = "secret-token-123 do not leak" in
  let path = Filename.temp_file "techmapd_secret" ".txt" in
  let oc = open_out path in
  output_string oc (secret ^ "\n");
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_server ~resolver:Flow.circuit_of_spec @@ fun sock _srv ->
  let c = Client.connect sock in
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some path }
  in
  check (Alcotest.option tstr) "file path is no circuit"
    (Some "unknown_circuit") (str_field "code" r);
  let text = Json.to_string r in
  let quoted =
    let n = String.length secret in
    let rec go i =
      i + n <= String.length text
      && (String.sub text i n = secret || go (i + 1))
    in
    go 0
  in
  check tbool "reply does not quote the file" false quoted;
  let r =
    Client.request c
      { (Proto.request Proto.Map) with
        Proto.circuit = Some "c432"; audit = true }
  in
  check tstr "named benchmark maps" "ok" (status r);
  check (Alcotest.option tstr) "audited" (Some "ok") (str_field "audit" r);
  Client.close c

(* A spec names a size, and the daemon must not build whatever a
   client names: soc:<n>/chain:<n> above Flow.max_spec_size answer
   too_large at once, before anything is generated, and the daemon
   keeps serving. The largest size an in-repo client sends still
   maps. *)
let test_spec_too_large () =
  with_server ~resolver:Flow.circuit_of_spec @@ fun sock _srv ->
  let c = Client.connect sock in
  let map spec =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some spec }
  in
  List.iter
    (fun spec ->
      let t0 = Clock.now () in
      let r = map spec in
      let dt = Clock.since t0 in
      check (Alcotest.option tstr) (spec ^ " refused") (Some "too_large")
        (str_field "code" r);
      check tbool
        (Printf.sprintf "%s answered in %.3fs" spec dt)
        true (dt < 1.0))
    [ "soc:100000000"; "soc:100001:3";
      Printf.sprintf "chain:%d" (Flow.max_spec_size + 1);
      Printf.sprintf "chain:%d" max_int ];
  check tstr "daemon still serves" "ok" (status (map "c432"));
  check tstr "chain:80000 maps" "ok" (status (map "chain:80000"));
  Client.close c

(* mode=cut runs the CLI's cut engine (priority 8) and agrees with an
   in-process Flow.map of the same circuit. *)
let test_cut_mode () =
  with_server ~resolver:Flow.circuit_of_spec @@ fun sock _srv ->
  let c = Client.connect sock in
  let r =
    Client.request c
      { (Proto.request Proto.Map) with
        Proto.circuit = Some "c432"; mode = Some "cut"; audit = true }
  in
  check tstr "cut map ok" "ok" (status r);
  check (Alcotest.option tstr) "cut audit" (Some "ok") (str_field "audit" r);
  let local =
    Flow.map
      (Flow.engine_of_string "cut")
      (Matchdb.prepare (Libraries.lib2_like ()))
      (Flow.decompose (Flow.circuit_of_spec "c432"))
  in
  let nl = local.Flow.netlist in
  check (Alcotest.float 0.0) "delay" (Netlist.delay nl) (num_field "delay" r);
  check (Alcotest.float 0.0) "area" (Netlist.area nl) (num_field "area" r);
  check (Alcotest.float 0.0) "gates"
    (float_of_int (Netlist.num_gates nl))
    (num_field "gates" r);
  Client.close c

let test_busy_backpressure () =
  with_server ~jobs:1 ~queue:1 @@ fun sock _srv ->
  (* One slow request occupies the single in-flight slot; while it is
     demonstrably in flight (stats is served inline, never pooled, so
     it works even with the pool saturated) any map must be refused
     with busy. *)
  let slow = Thread.create (fun () ->
      let c = Client.connect sock in
      let r =
        Client.request c
          { (Proto.request Proto.Map) with Proto.circuit = Some "chain:80000" }
      in
      Client.close c;
      check tstr "slow request eventually ok" "ok" (status r)) ()
  in
  let c = Client.connect sock in
  let rec wait_in_flight n =
    if n = 0 then Alcotest.fail "slow request never became in-flight"
    else if num_field "in_flight" (Client.request c (Proto.request Proto.Stats))
            < 1.0
    then begin
      Thread.delay 0.01;
      wait_in_flight (n - 1)
    end
  in
  wait_in_flight 500;
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "rand:5" }
  in
  check tstr "map refused while saturated" "busy" (status r);
  check tbool "busy reports limit" true (num_field "queue_max" r = 1.0);
  Client.close c;
  Thread.join slow

let test_shutdown_verb_and_counters () =
  let sock = fresh_sock () in
  let srv =
    Server.create
      { Server.socket_path = sock;
        jobs = 1;
        queue_max = 4;
        libraries = [ ("minimal", Libraries.minimal ()) ];
        resolve_circuit = Some resolver;
        verbose = false;
        io_timeout_s = 0.0;
        idle_timeout_s = 0.0;
        job_budget_s = 0.0;
        faults = Faultplan.none }
  in
  let th = Thread.create Server.run srv in
  let c = Client.connect sock in
  ping_ok c;
  let r =
    Client.request c
      { (Proto.request Proto.Map) with Proto.circuit = Some "rand:2" }
  in
  check tstr "map before shutdown" "ok" (status r);
  let r = Client.request c (Proto.request Proto.Shutdown) in
  check tbool "shutdown acknowledged" true
    (Json.member "draining" r = Some (Json.Bool true));
  (* The shutdown reply is the last one; the daemon drains and the
     run thread returns. *)
  Thread.join th;
  Client.close c;
  check tbool "socket removed" false (Sys.file_exists sock);
  check tbool "served everything" true (Server.requests_served srv >= 3)

let test_live_socket_refused () =
  with_server @@ fun sock _srv ->
  check tbool "second daemon on a live socket refused" true
    (match
       Server.create
         { Server.socket_path = sock;
           jobs = 1;
           queue_max = 1;
           libraries = [ ("minimal", Libraries.minimal ()) ];
           resolve_circuit = None;
           verbose = false;
           io_timeout_s = 0.0;
           idle_timeout_s = 0.0;
           job_budget_s = 0.0;
           faults = Faultplan.none }
     with
     | _ -> false
     | exception Failure _ -> true)

let () =
  Alcotest.run "serve"
    [ ( "proto",
        [ QCheck_alcotest.to_alcotest qc_roundtrip;
          Alcotest.test_case "parse error catalog" `Quick test_parse_errors ] );
      ( "malformed",
        [ Alcotest.test_case "daemon survives the catalog" `Quick
            test_malformed_catalog ] );
      ( "semantics",
        [ Alcotest.test_case "map/check/sta match local mapper" `Quick
            test_map_matches_local;
          Alcotest.test_case "legacy cache=0 request served" `Quick
            test_legacy_cache_key;
          Alcotest.test_case "server-side circuits, blif replies" `Quick
            test_server_side_circuit_and_blif_reply;
          Alcotest.test_case "circuit= names no file" `Quick
            test_spec_only_resolver;
          Alcotest.test_case "mode=cut" `Quick test_cut_mode;
          Alcotest.test_case "circuit= size bound" `Quick
            test_spec_too_large ] );
      ( "lifecycle",
        [ Alcotest.test_case "busy under overload" `Quick
            test_busy_backpressure;
          Alcotest.test_case "shutdown verb drains" `Quick
            test_shutdown_verb_and_counters;
          Alcotest.test_case "live socket refused" `Quick
            test_live_socket_refused ] ) ]
