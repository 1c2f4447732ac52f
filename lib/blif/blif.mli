(** BLIF (Berkeley Logic Interchange Format) reader and writer.

    Supported constructs: [.model], [.inputs], [.outputs], [.names]
    (single-output cover with [0/1/-] cubes, both on-set and off-set
    covers), [.latch] (edge-triggered, optional clock ignored),
    [.end], [#] comments, [\ ] line continuations.

    The reader streams: each raw line is comment-stripped, trimmed and
    continuation-joined as it arrives, and directive and cube state
    accumulates incrementally, so the text is never held as a line
    list and peak extra memory is one logical line. The network is
    then elaborated demand-driven from the outputs on an explicit
    stack, so node ids follow a post-order walk from the outputs and
    any [.names] depth parses. [test/test_blif_stream.ml] checks it
    against an independent slurping reader, on networks and on
    diagnostics.

    Mapped netlists are written with SIS-style [.gate] statements. *)

open Dagmap_logic
open Dagmap_core

exception Parse_error of { file : string option; line : int; message : string }
(** Every reader diagnostic — malformed constructs, bad cubes,
    duplicate or undefined signals, combinational cycles — carries
    the 1-based source line and, when reading a file, its name. *)

val describe : exn -> string
(** Render a {!Parse_error} as ["file:line: message"] (["<string>"]
    when parsing an in-memory string), any other exception via
    [Printexc]. Mirrors {!Dagmap_genlib.Genlib_parser.describe}. *)

val read_lines : ?file:string -> (unit -> string option) -> Network.t
(** Parse from a raw-line source ([None] = end of input; lines come
    without their trailing newline). Raises {!Parse_error}; [file]
    only decorates the diagnostics. *)

val read_string : ?file:string -> string -> Network.t
(** Parse BLIF source text, one line at a time. *)

val read_file : string -> Network.t
(** Parse a file through a 64 KiB chunked channel, with errors
    carrying the file name. *)

val write_network : Network.t -> string
(** Logic nodes are emitted as minterm covers of their expressions. *)

val write_netlist : Netlist.t -> string
(** Emit a mapped netlist using [.gate] statements
    ([.gate <gate> <pin>=<net> ... O=<net>]). *)
