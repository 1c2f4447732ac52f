(** Compatibility alias for callers that map an {!Dagmap_core.Arena}
    with priority cuts. The engine itself lives in {!Cut_mapper}. *)

open Dagmap_subject
open Dagmap_core

val map :
  ?jobs:int ->
  ?k:int ->
  ?priority:int ->
  ?pi_arrival:(int -> float) ->
  ?subject:Subject.t ->
  Boolean_match.t ->
  Arena.t ->
  Cut_mapper.result * Parmap.par_stats
(** [map] is {!Cut_mapper.map_arena}. *)
