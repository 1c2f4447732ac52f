(** Arena-native mapping core: the paper's labeling DP and cover
    construction running directly on the flat {!Arena} fanin vectors.

    This is an independent reimplementation of
    {!Matcher}/{!Matchdb}/{!Mapper} over int indices instead of boxed
    [Subject.kind] values — no variant allocation in the hot loop,
    arrival labels in an off-heap float vector, match enumeration
    reading two int loads per node. It is required to be
    {e bit-identical} to the legacy path: same labels, same best
    matches (physically the same patterns, equal pins and covered
    sets), same cover netlist, same matches-tried counts, with and
    without the match cache, in every mode. [test/test_arena.ml]
    enforces this across the full mode x jobs x cache x library
    matrix; any intentional change to one side must land on both. *)

open Dagmap_subject

type labels = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type cache
(** Canonical-signature match cache over arena indices — the port of
    {!Matchdb.cache} with the same tuning (cone budget, probation,
    self-retirement threshold). Not thread-safe: one cache per
    domain, exactly like the legacy caches in {!Parmap}. *)

val create_cache : unit -> cache

val cache_hits : cache -> int
val cache_misses : cache -> int

val cache_lookups : cache -> int
(** Conservation invariant as for {!Matchdb}:
    [cache_lookups c = cache_hits c + cache_misses c]. *)

val for_each_node_match :
  ?cache:cache ->
  Matchdb.t ->
  Matcher.match_class ->
  Arena.t ->
  fanouts:int array ->
  levels:int array ->
  int ->
  (Matcher.mtch -> unit) ->
  int
(** Arena port of {!Matchdb.for_each_node_match}: the same matches in
    the same order, and the same count of patterns tried. [fanouts]
    and [levels] must be {!Arena.fanout_counts} and {!Arena.levels}. *)

val label_node :
  ?cache:cache ->
  Matcher.match_class ->
  Matchdb.t ->
  Arena.t ->
  fanouts:int array ->
  levels:int array ->
  labels:labels ->
  best:Matcher.mtch option array ->
  int ->
  int * int * int
(** The DP kernel for one NAND/INV arena node; mirrors
    {!Mapper.label_node} (fills [labels.{node}] and [best.(node)],
    returns [(matches tried, supergate matches tried, patterns
    tried)], raises
    {!Mapper.Unmappable} when no match exists). Reads only
    strictly-lower-level entries of [labels], so calls within one
    topological level are independent — the arena-parallel labeler in
    {!Parmap} relies on exactly this. Do not call on a PI node. *)

val label :
  ?pi_arrival:(int -> float) ->
  ?cache:cache ->
  Mapper.mode ->
  Matchdb.t ->
  Arena.t ->
  labels * Matcher.mtch option array * (int * int * int)
(** Labeling pass; mirrors {!Mapper.label}, including the optional
    [cache] (none by default). Raises {!Mapper.Unmappable} as the
    legacy pass does. *)

val cover : Arena.t -> subject:Subject.t -> Matcher.mtch option array -> Netlist.t
(** Cover construction from a completed best-match array. [subject]
    must be the boxed view of the arena (it becomes
    [Netlist.source]). *)

val map :
  ?cache:bool -> ?subject:Subject.t -> Mapper.mode -> Matchdb.t -> Arena.t ->
  Mapper.result
(** End-to-end arena mapping, returning a plain {!Mapper.result} so
    every downstream consumer (STA, [lib/check], bench, reports)
    works unchanged. [subject] avoids a redundant {!Arena.to_subject}
    when the caller already holds the boxed view; it must describe
    the same graph. *)
