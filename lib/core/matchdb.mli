(** A gate library prepared for fast match enumeration.

    Each subject node is keyed by its {e shape}: the unordered
    NAND/INV/PI tree its fanin cone unfolds to over four levels (2,278
    possible codes). A shape's slot holds the patterns whose own
    four-level tree unfolding fits it in some NAND child order — a
    necessary condition for a match of any class — and the matcher
    runs only on those, after a depth filter. Slots are filled on
    first use, so preparing a library costs nothing per shape, and the
    filter keeps the library's fixed enumeration order, so it never
    changes which match wins a tie. This keeps the labeling pass close
    to the O(s p) bound of the paper with a small effective [p].

    On top of the index sits an optional {e match cache}: every
    binding the matcher makes lands within [max pattern depth] edges
    of the root, so a node's match set is determined by its
    depth-bounded cone up to isomorphism. The cache keys each node by
    a canonical signature of that cone (the structural analogue of
    the NPN-canonical cut classes used by Boolean matchers) and
    replays stored match sets through the isomorphism, skipping the
    backtracking search for the repeated local shapes that dominate
    ISCAS-like circuits. Cached and uncached enumeration return
    identical match lists in identical order — the test suite asserts
    this — so caching never changes mapping results. *)

open Dagmap_genlib
open Dagmap_subject

type t

val prepare : Libraries.t -> t

val library : t -> Libraries.t

val boolean : t -> Boolean_match.t
(** The {!Boolean_match} index over the same library (supergates
    included when the library was augmented), built lazily on first
    use and memoized — the structural and cut-based mappers share one
    permutation-variant table per prepared library. *)

val num_patterns : t -> int

val max_depth : t -> int
(** Deepest pattern in the library, in edges; bounds every match
    cone. *)

val for_each_candidate :
  t ->
  fanin0:(int -> int) ->
  fanin1:(int -> int) ->
  level:int ->
  int ->
  (Pattern.t -> unit) ->
  int
(** [for_each_candidate db ~fanin0 ~fanin1 ~level node try_pattern]
    calls [try_pattern] on every pattern that can match at [node] —
    those the shape index keeps, no deeper than [level] (the node's
    [Subject.levels] entry) — in enumeration order, and returns how
    many it called it on. The accessors describe the subject graph as
    {!Arena} does: [fanin0] is [-1] on a PI, [fanin1] is [-1] on a PI
    or an INV. No pattern roots at a PI. This is the one enumeration
    order shared by the boxed and arena matchers. Safe to call from
    several domains at once. *)

type cache
(** A match cache. Lookups are not thread-safe — the signature
    scratch state belongs to one domain at a time, so the parallel
    labeler creates one cache per worker — but the hit/miss/lookup
    counters are {!Dagmap_obs.Metrics} atomics: reading them from
    another domain, and the process-global aggregate counters
    (["matchdb.cache.lookups"/"hits"/"misses"] in the metrics
    registry) that every cache feeds concurrently, are exact.
    Creating a cache is cheap; hit rate grows with the number of
    nodes looked up through the same cache. *)

val create_cache : t -> cache

val cache_hits : cache -> int
val cache_misses : cache -> int
val cache_lookups : cache -> int
(** Counters satisfy
    [cache_lookups c = cache_hits c + cache_misses c] — also across
    domains on the global registry aggregates, since every bump is
    atomic; PI nodes are
    not counted (they have no matches). A cache that keeps missing
    (shape-diverse subjects, e.g. seeded random logic) retires
    itself after a probation period — later lookups bypass it and
    are not counted — so caching never costs more than a bounded
    constant on cache-hostile inputs. *)

val cache_retired : cache -> bool
(** Whether the cache has retired itself (later lookups bypass it). *)

val reset_counters : cache -> unit
(** Zero the hit/miss/lookup counters without touching the stored
    entries, so a cache shared across several {!Mapper} runs in one
    process reports per-run statistics (the second run then starts
    warm: typically all hits). Resetting restarts the retirement
    probation; an already-retired cache stays retired and keeps
    reporting zero activity. *)

val for_each_node_match :
  ?cache:cache ->
  t ->
  Matcher.match_class ->
  Subject.t ->
  fanouts:int array ->
  levels:int array ->
  int ->
  (Matcher.mtch -> unit) ->
  int
(** Enumerate every match of every library pattern rooted at the
    given subject node, and return the number of patterns handed to
    the matcher (0 on a cache hit, which replays instead). [levels]
    must be [Subject.levels g]. The callback must not re-enter the
    same [cache] (the mapper's callbacks never do). *)

val node_matches :
  ?cache:cache ->
  t ->
  Matcher.match_class ->
  Subject.t ->
  fanouts:int array ->
  levels:int array ->
  int ->
  Matcher.mtch list
