(** Delay-oriented technology mapping by graph covering.

    One dynamic program serves both mappers, parameterized by the
    match class:

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
    set. *)

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
          ({!Dagmap_obs.Clock.now}) — same time base as {!Parmap} and
          the bench harness, so phase timings are directly comparable
          (these fields were process-CPU [Sys.time] once, which
          understated parallel phases and mixed clocks) *)
  cover_seconds : float;  (** monotonic wall seconds of the cover pass *)
  matches_tried : int;   (** successful matches considered while labeling *)
  super_matches_tried : int;
      (** subset of [matches_tried] whose gate is a supergate
          ({!Dagmap_genlib.Gate.is_super}) *)
  patterns_tried : int;
      (** patterns handed to the structural matcher while labeling,
          whether or not they matched; cache hits replay without
          trying any. Deterministic for one cache, but with caching
          on and several domains it depends on which worker's cache
          sees a shape first, like the hit/miss split *)
  cache_hits : int;      (** match-cache hits (0 when caching is off) *)
  cache_misses : int;
  cache_lookups : int;   (** = hits + misses *)
  super_gates_used : int;
      (** supergate instances in the final cover netlist *)
}

type result = {
  netlist : Netlist.t;
  labels : float array;  (** optimal arrival per subject node *)
  best : Matcher.mtch option array;
  run : stats;
}

val map : ?cache:bool -> mode -> Matchdb.t -> Subject.t -> result
(** [cache] (default [true]) enables the {!Matchdb} match cache for
    the labeling pass. Caching never changes the result — cached and
    uncached enumeration return identical match lists — it only skips
    redundant backtracking searches on repeated local shapes. *)

val label :
  ?pi_arrival:(int -> float) ->
  ?cache:Matchdb.cache ->
  mode ->
  Matchdb.t ->
  Subject.t ->
  float array * Matcher.mtch option array * (int * int * int)
(** Labeling pass only: optimal arrival and best match per node,
    plus [(matches tried, supergate matches tried, patterns tried)]. [pi_arrival]
    overrides the arrival time of a PI node (default 0 everywhere) —
    the sequential extension uses it to inject latch-output
    arrivals. *)

val label_node :
  ?cache:Matchdb.cache ->
  Matcher.match_class ->
  Matchdb.t ->
  Subject.t ->
  fanouts:int array ->
  levels:int array ->
  labels:float array ->
  best:Matcher.mtch option array ->
  int ->
  int * int * int
(** The DP kernel for one NAND/INV node: fills [labels.(node)] and
    [best.(node)] from the labels of its fanin cone and returns
    [(matches considered, supergate matches considered, patterns
    tried)]. Raises
    {!Unmappable} if the node
    has no match. Reads only strictly-lower-level entries of
    [labels], so calls within one topological level are independent —
    {!Parmap} relies on exactly this. Do not call on a PI node. *)

val super_gates_in : Netlist.t -> int
(** Number of supergate instances in a netlist (the
    [super_gates_used] statistic). *)

val cover : Subject.t -> Matcher.mtch option array -> Netlist.t
(** Cover construction (paper §3.3) from a completed [best] array:
    walk back from the outputs, instantiating each needed node's best
    match and duplicating subject logic where matches overlap. *)

val optimal_delay : result -> float
(** Worst label over the subject outputs (equals
    [Netlist.delay result.netlist]; the test suite asserts this). *)

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
