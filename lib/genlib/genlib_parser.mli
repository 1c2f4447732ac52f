(** Parser for the MCNC [genlib] standard-cell library format.

    Supported syntax (per the SIS manual):
    {v
    GATE <name> <area> <output>=<formula>;
    PIN <pin-name|*> <phase> <input-load> <max-load>
        <rise-block> <rise-fanout> <fall-block> <fall-fanout>
    v}
    [#] starts a comment to end of line. [LATCH] blocks and their
    [SEQ]/[CONTROL]/[CONSTRAINT] lines are recognized and skipped
    (this reproduction maps combinational logic; latches are handled
    structurally by the retiming layer). A [PIN *] line applies to
    all formula inputs. The four delay fields must be finite and
    non-negative; anything else is a {!Syntax_error} at the field. *)

exception
  Syntax_error of {
    file : string option;  (** [None] when parsing an in-memory string *)
    line : int;            (** 1-based *)
    col : int;             (** 1-based column of the offending token *)
    message : string;
  }

val describe : exn -> string
(** Render a {!Syntax_error} as ["file:line:col: message"] (the file
    defaults to ["<genlib>"]). Raises [Invalid_argument] on any other
    exception. *)

val parse_string : ?file:string -> string -> Gate.t list
(** Parse genlib source text. Raises {!Syntax_error}; [file] only
    labels error messages. *)

val parse_file : string -> Gate.t list
(** Like {!parse_string}, with errors carrying the file name. *)

val to_string : Gate.t list -> string
(** Render a library back to genlib syntax. *)
