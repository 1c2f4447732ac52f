(** The [techmapd] wire protocol: newline-delimited request headers
    with length-prefixed BLIF payloads, one-line JSON responses.

    Dependency-free by construction — the only moving parts are an
    ASCII header line and {!Dagmap_obs.Json}. The full grammar lives
    in DESIGN.md §13; the shape is:

    {v
    request  = verb *( SP key "=" value ) LF [ payload ]
    payload  = exactly N bytes of BLIF, N = value of the "payload" key
    response = one line of JSON, LF-terminated
    v}

    A header line is at most {!max_header} bytes; a payload at most
    {!max_payload}. Unknown keys are ignored (forward
    compatibility); unknown verbs, malformed pairs and out-of-range
    payload lengths are structured {!parse_error}s. Errors that
    leave the stream position undefined (an unreadable payload
    length) are [fatal]: the server replies and then closes the
    connection, since it cannot find the next request boundary. *)

type verb = Ping | Map | Check | Sta | Stats | Shutdown

val verb_name : verb -> string
val verb_of_string : string -> verb option

type request = {
  verb : verb;
  id : string option;       (** client tag, echoed verbatim in the reply *)
  circuit : string option;  (** named circuit spec (server-side resolution) *)
  payload : int option;     (** declared BLIF payload length in bytes *)
  lib : string option;      (** preloaded library name (default: first) *)
  mode : string option;     (** tree | dag | dag-extended (default dag) *)
  audit : bool;             (** run the full lib/check audit on map replies *)
  want_blif : bool;         (** include the mapped netlist BLIF in the reply *)
  metrics : bool;           (** include the metrics registry in stats replies *)
  deadline_ms : int option;
      (** end-to-end budget in milliseconds, measured by the server
          from admission; an expired request gets a structured
          ["deadline_exceeded"] error instead of a result *)
}

val request : verb -> request
(** A request with every optional field at its default. *)

val max_header : int
(** Header line cap in bytes, terminator included (4096). *)

val max_payload : int
(** Payload cap in bytes (16 MiB). *)

type parse_error = {
  code : string;     (** stable machine code, e.g. ["bad_request"] *)
  message : string;  (** human diagnostic *)
  fatal : bool;      (** the connection cannot be resynchronized *)
}

val parse_request : string -> (request, parse_error) result
(** Parse one header line (with or without the trailing LF). *)

val encode_request : request -> string
(** Render the header line, trailing LF included. Only non-default
    fields are emitted, so [parse_request (encode_request r) = Ok r].
    Raises [Invalid_argument] if a field value contains a space,
    ["="]-in-key ambiguity never arises (values may contain ["="]),
    or a newline — such values cannot be framed. *)

val error_json :
  ?id:string -> code:string -> string -> Dagmap_obs.Json.t
(** [{"status":"error","code":code,"message":...}] plus the echoed
    id, ready for one-line serialization. *)

val busy_json : ?id:string -> depth:int -> limit:int -> unit -> Dagmap_obs.Json.t
(** The backpressure reply: [{"status":"busy",...}] with the queue
    depth that triggered it and the configured high-water mark. *)

val deadline_json :
  ?id:string -> elapsed_ms:int -> deadline_ms:int -> unit -> Dagmap_obs.Json.t
(** The structured deadline miss:
    [{"status":"error","code":"deadline_exceeded",...}] carrying how
    long the request had been in the server against its budget.
    Clients must {e not} retry these — the budget is spent. *)
