open Dagmap_obs

type verb = Ping | Map | Check | Sta | Stats | Shutdown

let verb_name = function
  | Ping -> "ping"
  | Map -> "map"
  | Check -> "check"
  | Sta -> "sta"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let verb_of_string = function
  | "ping" -> Some Ping
  | "map" -> Some Map
  | "check" -> Some Check
  | "sta" -> Some Sta
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  verb : verb;
  id : string option;
  circuit : string option;
  payload : int option;
  lib : string option;
  mode : string option;
  audit : bool;
  want_blif : bool;
  metrics : bool;
  deadline_ms : int option;
}

let request verb =
  { verb; id = None; circuit = None; payload = None; lib = None;
    mode = None; audit = false; want_blif = false;
    metrics = false; deadline_ms = None }

let max_header = 4096
let max_payload = 16 * 1024 * 1024

type parse_error = { code : string; message : string; fatal : bool }

let err ?(fatal = false) code message = Error { code; message; fatal }

(* Key=value pairs: the value is everything after the first '='
   (values may contain further '='s, e.g. base64-ish ids); keys are
   lowercase ASCII identifiers. A flag value is "1"/"true" or
   "0"/"false". *)
let bool_value key v =
  match v with
  | "1" | "true" -> Ok true
  | "0" | "false" -> Ok false
  | _ -> err "bad_request" (Printf.sprintf "%s=%s: want 0/1" key v)

let parse_request line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1) else line
  in
  if String.length line + 1 > max_header then
    err ~fatal:true "header_too_long"
      (Printf.sprintf "header exceeds %d bytes" max_header)
  else
    let tokens =
      List.filter (fun t -> t <> "") (String.split_on_char ' ' line)
    in
    match tokens with
    | [] -> err "bad_request" "empty request line"
    | verb_s :: pairs -> (
      (* Parse the pairs first: a bad payload length is fatal even
         under an unknown verb, because the stream position after the
         header is then unknowable. *)
      let rec fold req = function
        | [] -> Ok req
        | pair :: rest -> (
          match String.index_opt pair '=' with
          | None | Some 0 ->
            err "bad_request" (Printf.sprintf "malformed pair %S" pair)
          | Some i -> (
            let key = String.sub pair 0 i in
            let v = String.sub pair (i + 1) (String.length pair - i - 1) in
            match key with
            | "id" -> fold { req with id = Some v } rest
            | "circuit" -> fold { req with circuit = Some v } rest
            | "lib" -> fold { req with lib = Some v } rest
            | "mode" -> fold { req with mode = Some v } rest
            | "payload" -> (
              match int_of_string_opt v with
              | Some n when n >= 0 && n <= max_payload ->
                fold { req with payload = Some n } rest
              | Some n when n > max_payload ->
                err ~fatal:true "payload_too_large"
                  (Printf.sprintf "payload %d exceeds %d bytes" n max_payload)
              | _ ->
                err ~fatal:true "bad_request"
                  (Printf.sprintf "payload=%s: not a byte count" v))
            | "audit" -> (
              match bool_value key v with
              | Ok b -> fold { req with audit = b } rest
              | Error e -> Error e)
            | "blif" -> (
              match bool_value key v with
              | Ok b -> fold { req with want_blif = b } rest
              | Error e -> Error e)
            | "metrics" -> (
              match bool_value key v with
              | Ok b -> fold { req with metrics = b } rest
              | Error e -> Error e)
            | "deadline_ms" -> (
              match int_of_string_opt v with
              | Some ms when ms > 0 ->
                fold { req with deadline_ms = Some ms } rest
              | _ ->
                err "bad_request"
                  (Printf.sprintf "deadline_ms=%s: want a positive ms count" v))
            | _ -> fold req rest (* unknown keys: forward compatibility *)))
      in
      match fold (request Ping) pairs with
      | Error e -> Error e
      | Ok parsed -> (
        match verb_of_string verb_s with
        | Some verb -> Ok { parsed with verb }
        | None ->
          (* With a pending payload the next request boundary is past
             bytes we refuse to interpret for an unknown verb. *)
          err
            ~fatal:(parsed.payload <> None && parsed.payload <> Some 0)
            "unknown_verb"
            (Printf.sprintf "unknown verb %S" verb_s)))

let check_value what v =
  String.iter
    (fun c ->
      if c = ' ' || c = '\n' || c = '\r' then
        invalid_arg (Printf.sprintf "Proto.encode_request: %s value %S" what v))
    v

let encode_request r =
  let b = Buffer.create 64 in
  Buffer.add_string b (verb_name r.verb);
  let add key v =
    check_value key v;
    Buffer.add_char b ' ';
    Buffer.add_string b key;
    Buffer.add_char b '=';
    Buffer.add_string b v
  in
  Option.iter (add "id") r.id;
  Option.iter (add "circuit") r.circuit;
  Option.iter (add "lib") r.lib;
  Option.iter (add "mode") r.mode;
  Option.iter (fun n -> add "payload" (string_of_int n)) r.payload;
  if r.audit then add "audit" "1";
  if r.want_blif then add "blif" "1";
  if r.metrics then add "metrics" "1";
  Option.iter (fun ms -> add "deadline_ms" (string_of_int ms)) r.deadline_ms;
  Buffer.add_char b '\n';
  Buffer.contents b

let id_field = function
  | None -> []
  | Some id -> [ ("id", Json.String id) ]

let error_json ?id ~code message =
  Json.Obj
    (id_field id
    @ [ ("status", Json.String "error");
        ("code", Json.String code);
        ("message", Json.String message) ])

let busy_json ?id ~depth ~limit () =
  Json.Obj
    (id_field id
    @ [ ("status", Json.String "busy");
        ("queue_depth", Json.Int depth);
        ("queue_max", Json.Int limit) ])

let deadline_json ?id ~elapsed_ms ~deadline_ms () =
  Json.Obj
    (id_field id
    @ [ ("status", Json.String "error");
        ("code", Json.String "deadline_exceeded");
        ("message", Json.String "request deadline exceeded");
        ("elapsed_ms", Json.Int elapsed_ms);
        ("deadline_ms", Json.Int deadline_ms) ])
