(** k-feasible cuts with cut functions: the building blocks of the
    priority-cut engine ({!Cut_mapper}).

    This is the modern (ABC-style) alternative substrate to pattern
    matching: instead of matching library structure against the
    subject graph, enumerate for every node a bounded set of
    k-feasible cuts together with the Boolean function of the node in
    terms of the cut leaves, and let a Boolean matcher find gates.

    Cuts are shrunk to their true support and deduplicated; each
    node's list always contains its trivial cut (the node itself, for
    use by its fanouts) and always retains the direct-fanin cut, so a
    downstream mapper can rely on NAND2/INV fallbacks. *)

open Dagmap_logic
open Dagmap_subject

type cut = {
  leaves : int array;   (** sorted subject node ids *)
  func : Truth.t;       (** node function over [leaves] *)
  depth : int;          (** max unit level among the leaves *)
}

val is_trivial : cut -> bool
(** The singleton cut of the node itself. *)

val trivial : levels:int array -> int -> cut
(** The singleton cut of a node ([levels] = [Subject.levels]). *)

val merged_generic :
  k:int ->
  int array ->
  (Truth.t array -> Truth.t) ->
  cut list list ->
  cut list
(** [merged_generic ~k levels combine fanin_cuts]: all (unpruned,
    deduplicated, support-shrunk) k-feasible cuts of a node, merged
    from one or two fanins' cut lists through the node operator
    [combine]. The result order is a deterministic function of the
    input lists alone, which is what lets the cut mapper's level sweep
    produce the same cut sets in any visiting order. *)

val retain_fallback :
  fanins:int list ->
  leaves_of:('a -> int array) ->
  all:'a list ->
  'a list ->
  'a list
(** [retain_fallback ~fanins ~leaves_of ~all kept] enforces the
    fallback invariant every cut-set consumer relies on: if [kept]
    lacks the direct-fanin cut (leaves = the sorted distinct fanins),
    append it from [all] — or, when support shrinking ate it, its
    shrunk descendant (a strict subset of the fanin leaves). A mere
    subset-of-fanins cut in [kept] (e.g. a single trivial fanin cut)
    does {e not} satisfy the invariant. The cut mapper and the tests'
    reference enumerator share it, so the retention rule cannot
    drift. *)

val cut_cone :
  Subject.t ->
  levels:int array ->
  folded:(int -> bool) ->
  int ->
  cut ->
  int list
(** [cut_cone g ~levels ~folded root c] is what an instance of [c] at
    [root] covers: the nodes on some path from a leaf of [c] up to
    [root], [root] included and the leaves excluded, that passes
    through no node for which [folded] holds (a node the mapper
    folded to a constant). [levels] is {!Subject.levels}.
    On a cut that separates [root] from the primary inputs this is
    every node between the leaves and the root; a support-shrunk cut
    does not, and the walk never leaves the region above its lowest
    leaf, so no primary input is ever covered. Root first; iterative,
    so deep cones cannot overflow the stack. *)
