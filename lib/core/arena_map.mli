(** Compatibility alias for callers that name [Arena_map]. The
    labeling engine itself lives in {!Mapper}. *)

open Dagmap_subject

val map :
  ?subject:Subject.t -> Mapper.mode -> Matchdb.t -> Subject.t -> Mapper.result
(** [map ?subject mode db g] is [Mapper.map mode db g]; [subject] is
    ignored, since the graph is its own netlist source. *)
