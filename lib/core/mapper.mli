(** Delay-oriented technology mapping by graph covering.

    One dynamic program serves every mapper mode, parameterized by
    the match class:

    - {!Tree}: exact matches only — matches never cross multi-fanout
      points and never require duplication; this is conventional
      tree covering (Keutzer / Rudell / SIS) expressed as a DP over
      the whole graph.
    - {!Dag}: standard matches — the paper's contribution. The
      labeling pass computes, in topological order, each node's
      optimal arrival time over all matches rooted there; the cover
      pass walks back from the outputs, duplicating subject nodes as
      needed (paper §3.1, §3.3).
    - {!Dag_extended}: extended matches (Definition 3); the paper's
      footnote 3 reports no quality difference vs. standard, which
      our ablation benchmark checks.

    Under the load-independent delay model the DAG modes are
    delay-optimal with respect to the subject graph and the pattern
    set.

    There is one labeling engine and one entry point, {!map}. It reads
    the flat {!Subject.t} level by level: a node's label depends only
    on nodes at strictly smaller levels, so [jobs > 1] fans each wide
    level across a {!Parmap} domain pool while [jobs = 1] runs the
    same sweep on the calling domain. Labels, best matches and covers
    are bit-identical for every [jobs].

    The labeler scores each binding where the backtracking search
    stands, without building a match, and keeps each node's winner as
    a pattern id and pins in flat int arrays ({!winners}). The cover
    walks those arrays through the one netlist builder, {!Cover}, and
    rebuilds a match only for the instances it emits. *)

open Dagmap_genlib
open Dagmap_subject

type mode = Tree | Dag | Dag_extended

val mode_name : mode -> string
val mode_class : mode -> Matcher.match_class

exception Unmappable of { node : int; description : string }
(** Raised when some subject node has no match at all (cannot happen
    when the library contains INV and NAND2). *)

type stats = {
  label_seconds : float;
      (** monotonic wall seconds of the labeling pass
          ({!Dagmap_obs.Clock.now}) — the same time base as the
          per-level timings and the bench harness *)
  cover_seconds : float;  (** monotonic wall seconds of the cover pass *)
  matches_tried : int;   (** successful matches considered while labeling *)
  super_matches_tried : int;
      (** subset of [matches_tried] whose gate is a supergate
          ({!Dagmap_genlib.Gate.is_super}) *)
  patterns_tried : int;
      (** patterns handed to the structural matcher while labeling,
          whether or not they matched; deterministic for every [jobs] *)
  cache_hits : int;
  cache_lookups : int;
      (** Always 0. The cone-signature match cache these counted was
          removed once the shape index made it cost more than it
          saved; the fields stay so existing readers keep compiling. *)
  super_gates_used : int;
      (** supergate instances in the final cover netlist *)
}

type winners
(** The labeler's winners, flat: per subject node the id of the
    winning pattern ({!Matchdb.pattern}) and the subject node bound to
    each of its gate's pins, in int arrays. No match record is kept;
    {!winner} rebuilds one on demand. *)

type result = {
  netlist : Netlist.t;
  labels : float array;  (** optimal arrival per subject node *)
  winners : winners;
  run : stats;
  par : Parmap.par_stats;  (** shape and timing of the level sweep *)
}

val map : ?jobs:int -> mode -> Matchdb.t -> Subject.t -> result
(** Label and cover a subject graph, which becomes [Netlist.source].
    [jobs] (default 1) is the number of domains the labeling sweep may
    use. *)

val label :
  ?jobs:int ->
  ?pi_arrival:(int -> float) ->
  mode ->
  Matchdb.t ->
  Subject.t ->
  float array * winners * (int * int * int) * Parmap.par_stats
(** Labeling pass only: optimal arrival and winner per node,
    [(matches tried, supergate matches tried, patterns tried)] and the
    sweep's level statistics. [pi_arrival] overrides the arrival time
    of a PI node (default 0 everywhere) — the sequential extension
    uses it to inject latch-output arrivals. Raises {!Unmappable} for
    any [jobs] exactly when a node has no match.

    The pass tries only matches that can still win: it skips the
    {!Matchdb.redundant} patterns and the second child order at
    {!Matchdb.symmetric} NANDs. Every match it skips has an earlier
    twin with the same gate, arrival, area and pin count, and [better]
    is strict, so labels and winners equal those of the full
    enumeration; the match counts are those of the pruned one. *)

val winner : winners -> int -> Matcher.mtch option
(** [winner w node]: the match the labeler chose at [node] ([None] at
    a PI), rebuilt by re-running its pattern at [node] and taking the
    first binding with the stored pins. It equals the best match of a
    labeler that enumerates every match: same pattern, pins and
    [covered]. *)

val best : result -> int -> Matcher.mtch option
(** [best r node] is [winner r.winners node]. *)

val arrival : skew:float -> float array -> Gate.t -> int array -> float
(** [arrival ~skew labels gate pins]: the arrival [gate] realizes when
    pin [i] is driven by subject node [pins.(i)] ([-1]: unused) — the
    max over used pins of label + intrinsic pin delay + [skew], or 0
    for a gate that uses no pin. Never clamped at 0, so negative
    labels stay meaningful. The labeler passes
    {!test_pin_delay_skew}; area recovery passes 0. *)

val for_each_match :
  Matcher.match_class ->
  Subject.t ->
  fanouts:int array ->
  Pattern.t ->
  int ->
  (Matcher.mtch -> unit) ->
  unit
(** [for_each_match cls g ~fanouts p root f] calls [f] once per
    distinct successful match of [p] rooted at subject node [root]
    (distinct = distinct pin binding), in backtracking order, trying
    both child orders at every NAND. [fanouts] must be
    [Subject.fanout_counts g] (used by the exact-match out-degree
    test). *)

val for_each_node_match :
  Matchdb.t ->
  Matcher.match_class ->
  Subject.t ->
  fanouts:int array ->
  levels:int array ->
  int ->
  (Matcher.mtch -> unit) ->
  int
(** [for_each_node_match db cls g ~fanouts ~levels node f] calls [f]
    on every match of every library pattern rooted at subject node
    [node], in the enumeration order that decides labeling ties, and
    returns the number of patterns handed to the matcher. [fanouts]
    and [levels] must be {!Subject.fanout_counts} and
    {!Subject.levels}. The match set equals that of
    {!for_each_match} over every pattern; the test suite asserts
    this. Nothing is pruned here. *)

val super_gates_in : Netlist.t -> int
(** Number of supergate instances in a netlist (the
    [super_gates_used] statistic). *)

val optimal_delay : result -> float
(** Worst label over the subject outputs (equals
    [Netlist.delay result.netlist]; the test suite asserts this). *)

val predicted_at : Subject.t -> float array -> (string * float) list
(** [predicted_at g labels]: each output of [g] paired with the label
    of its driving node, then each constant output at 0. *)

val predicted_arrivals : result -> (string * float) list
(** Per-output predicted arrival: each subject output paired with the
    label of its driving node (constant outputs arrive at 0). Under
    the intrinsic delay model these must equal the mapped netlist's
    STA arrivals output-by-output — the {!Dagmap_check} delay audit
    asserts exactly this. *)

val test_pin_delay_skew : float ref
(** Fault-injection hook for the verification layer's own tests: a
    delay added to every pin delay seen by {e labeling only}, so
    predictions drift from the netlist's true arrivals. Must be [0.0]
    (the default) outside check-layer tests. *)
