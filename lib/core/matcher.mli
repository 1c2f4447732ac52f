(** Matches between subject graphs and pattern graphs — Rudell's
    [graph-match], extended with the paper's three match classes:

    - {e standard} (Definition 1): edge- and in-degree-preserving,
      one-to-one node mapping; internal subject nodes may still fan
      out of the match.
    - {e exact} (Definition 2): standard, plus internal pattern nodes
      must preserve out-degree — the class tree covering needs.
    - {e extended} (Definition 3): standard without the one-to-one
      requirement, allowing a pattern to fold onto shared subject
      structure.

    This module holds the classes, the match record and the steps the
    matcher shares; the matcher itself is {!Mapper.for_each_match}.
    The labeler never builds an {!mtch}: it scores each binding where
    it stands and keeps only the winner's pattern and pins, from which
    {!Mapper.best} rebuilds the record on demand. NAND input
    permutations are explored by trying both fanin orders at every
    NAND, so pattern generation need not enumerate them. *)

open Dagmap_genlib

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

val bound : int array -> int -> int -> bool
(** [bound binding n sid]: one of the first [n] pattern nodes is bound
    to subject node [sid] ([binding] maps pattern node to subject
    node, [-1] when unbound). The injectivity test of standard and
    exact matches. *)

val covered : Pattern.t -> int array -> int array
(** [covered p binding]: the distinct subject nodes [binding] maps the
    non-leaf nodes of [p] to, ascending — a match's [covered]. *)
