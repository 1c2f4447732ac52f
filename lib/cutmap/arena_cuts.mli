(** Compatibility alias for callers that name [Arena_cuts]. The engine
    itself lives in {!Cut_mapper}. *)

open Dagmap_subject
open Dagmap_core

val map :
  ?jobs:int ->
  ?k:int ->
  ?priority:int ->
  ?pi_arrival:(int -> float) ->
  ?subject:Subject.t ->
  Boolean_match.t ->
  Subject.t ->
  Cut_mapper.result * Parmap.par_stats
(** [map ... db g] is [Cut_mapper.map ... db g] paired with its sweep
    statistics; [subject] is ignored, since the graph is its own
    netlist source. *)
