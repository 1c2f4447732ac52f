(** Compatibility alias for callers that map an {!Arena} directly.
    The labeling engine itself lives in {!Mapper}. *)

open Dagmap_subject

val map :
  ?subject:Subject.t -> Mapper.mode -> Matchdb.t -> Arena.t -> Mapper.result
(** [map ?subject mode db a] is [Mapper.map_arena ?subject mode db a]
    with one domain. *)
