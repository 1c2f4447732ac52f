(** Cut-based delay-oriented technology mapping with Boolean
    matching — the modern (ABC-style) engine, built here as a
    comparison point for the paper's structural DAG covering.

    Like the paper's algorithm it labels nodes in topological order
    and covers backward from the outputs with free duplication; the
    difference is the match generator: bounded priority-cut
    enumeration plus exact Boolean matching instead of pattern-graph
    matching. Because the cut set is pruned (priority cuts), the
    result is a strong heuristic rather than delay-optimal; the
    benchmark harness compares both engines.

    There is one engine and one entry point, {!map}. It runs
    {!Parmap.sweep} over the flat {!Subject.t}, the same level sweep
    as {!Mapper.label}, and keeps each node's cut set in preallocated
    flat buffers. A node's evaluation is a pure function of its
    fanins' stored cuts and of lower-level labels, so labels, choices,
    the netlist and [matches_evaluated] are bit-identical for every
    [jobs].

    {b Store capacity.} A node stores at most [priority + 2] cuts, but
    full enumeration stores far fewer than a huge [priority] allows.
    The store starts at [min priority 62 + 2] slots per node; a node
    that needs more makes the engine rerun the (deterministic) sweep
    with at least twice the capacity, up to [priority + 2].

    {b Covers.} An instance covers the subject nodes on some path from
    one of its cut's leaves to its root, root included, that passes
    through no constant-folded node ({!Cuts.cut_cone}). *)

open Dagmap_subject
open Dagmap_core

type choice = {
  cut : Cuts.cut;
  entry : Boolean_match.entry;
}

type result = {
  netlist : Netlist.t;
  labels : float array;
  chosen : choice option array;   (** per needed subject node *)
  matched_nodes : int;            (** nodes with a non-fallback match *)
  matches_evaluated : int;        (** (cut, library entry) pairs scored *)
  par : Parmap.par_stats;         (** shape and timing of the level sweep *)
}

val map :
  ?jobs:int ->
  ?k:int ->
  ?priority:int ->
  ?pi_arrival:(int -> float) ->
  Boolean_match.t ->
  Subject.t ->
  result
(** [map db g] labels [g] and covers backward from the outputs; [g]
    becomes [Netlist.source]. [k] (default 5, clamped to the library's
    widest matchable gate) bounds cut width; [priority] (default 50)
    bounds cuts kept per node — quality converges to the structural
    mapper's as the budget grows (the harness sweeps this).
    [pi_arrival] gives each primary input's external arrival time
    (default 0.0 for all, matching {!Mapper.map}); negative arrivals
    are honored, not clamped. [jobs] (default 1) is the number of
    domains the sweep may use. Raises [Mapper.Unmappable] if some node
    has no matchable cut (cannot happen when the library contains INV
    and NAND2). *)

val predicted_arrivals : result -> (string * float) list
(** Per-output predicted arrivals in [Check.audit] form: each output
    name with the label at its driver (0.0 for constant outputs) —
    the cut-mapper analogue of {!Mapper.predicted_arrivals}. *)
