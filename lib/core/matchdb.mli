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

    [prepare] also computes, once per pattern, what the labeler may
    skip: the symmetric NANDs of each strict tree pattern
    ({!symmetric}) and the patterns that repeat an earlier one of the
    same gate ({!redundant}). Only the labeler reads them; the full
    enumeration of {!Mapper.for_each_node_match} ignores them. *)

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

val rooting_patterns : t -> Pattern.t list
(** The patterns that can root a cover (INV- or NAND-rooted), in
    enumeration order. Among equally good matches the first one
    enumerated wins, so this order is part of the labeling result;
    {!for_each_candidate} keeps it. A pattern's {e id} is its position
    in this list. *)

val pattern : t -> int -> Pattern.t
(** [pattern db id] is the rooting pattern with id [id]. *)

val symmetric : t -> int -> Bytes.t
(** [symmetric db id] marks, with a nonzero byte per pattern node, the
    NANDs of pattern [id] whose second child order the labeler skips:
    the pattern is a strict tree (no node feeds two users, no pin sits
    at two leaves) and the NAND's two subtrees are isomorphic with
    equal pin delays at corresponding leaves. Empty when the pattern
    has none. Every binding the second order would give has a twin
    from the first order with the same gate and the same multiset of
    (subject node, pin delay), so it never wins. *)

val redundant : t -> int -> bool
(** [redundant db id]: pattern [id] is a strict tree that is
    delay-isomorphic to an earlier pattern of the same gate. Both are
    candidates at a node or neither is, and the earlier one is tried
    first with matches of the same cost, so the labeler skips this
    one. *)

val max_nodes : t -> int
(** Nodes in the largest rooting pattern (at least 1). *)

val max_pins : t -> int
(** Pins of the widest gate with a rooting pattern (at least 1). *)

val for_each_candidate :
  t -> Subject.t -> pruned:bool -> level:int -> int -> (int -> unit) -> int
(** [for_each_candidate db a ~pruned ~level node try_pattern] calls
    [try_pattern] on the id of every pattern that can match at subject
    node [node] — those the shape index keeps, no deeper than [level]
    (the node's {!Subject.levels} entry) — in enumeration order, and
    returns how many it called it on. With [pruned], {!redundant}
    patterns are skipped and not counted. No pattern roots at a PI.
    This is the enumeration order {!Mapper.for_each_node_match} and
    the labeler use. Safe to call from several domains at once. *)
