(** Structural pattern matching between subject graphs and pattern
    graphs — Rudell's [graph-match], extended with the paper's three
    match classes:

    - {e standard} (Definition 1): edge- and in-degree-preserving,
      one-to-one node mapping; internal subject nodes may still fan
      out of the match.
    - {e exact} (Definition 2): standard, plus internal pattern nodes
      must preserve out-degree — the class tree covering needs.
    - {e extended} (Definition 3): standard without the one-to-one
      requirement, allowing a pattern to fold onto shared subject
      structure.

    NAND input permutations are explored by trying both fanin orders
    at every NAND, so pattern generation need not enumerate them. *)

open Dagmap_genlib
open Dagmap_subject

type match_class = Standard | Exact | Extended

val class_name : match_class -> string

type mtch = {
  pattern : Pattern.t;
  pins : int array;
  (** subject node bound to each gate pin; [-1] for a pin the formula
      does not reference *)
  covered : int array;
  (** distinct subject nodes covered by the match's non-leaf pattern
      nodes (including the root); logic a DAG cover may replicate *)
}

val gate : mtch -> Gate.t

val for_each_match :
  match_class ->
  Subject.t ->
  fanouts:int array ->
  Pattern.t ->
  int ->
  (mtch -> unit) ->
  unit
(** [for_each_match cls g ~fanouts p root f] calls [f] once per
    distinct successful match of [p] rooted at subject node [root]
    (distinct = distinct pin binding). [fanouts] must be
    [Subject.fanout_counts g] (used by the exact-match out-degree
    test). *)

val bound : int array -> int -> bool
(** [bound binding sid]: some pattern node is bound to subject node
    [sid] ([binding] maps pattern node to subject node, [-1] when
    unbound). The injectivity test of standard and exact matches;
    shared with the arena matcher in {!Arena_map}. *)

val emitter : Pattern.t -> int array -> (mtch -> unit) -> unit -> unit
(** [emitter p binding f] is one try's report step: each call reads
    the complete [binding] of [p] and passes the match to [f], unless
    this try already reported the same pin binding. Shared with the
    arena matcher in {!Arena_map}. *)

val matches :
  match_class -> Subject.t -> fanouts:int array -> Pattern.t -> int -> mtch list

val exists_match :
  match_class -> Subject.t -> fanouts:int array -> Pattern.t -> int -> bool
