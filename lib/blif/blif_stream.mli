(** An alias of {!Blif.read_string}, which streams. It is kept so that
    code naming [Blif_stream] keeps compiling; new code calls [Blif]. *)

val read_string : ?file:string -> string -> Dagmap_logic.Network.t
