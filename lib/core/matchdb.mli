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
    to the O(s p) bound of the paper with a small effective [p]. *)

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
    {!for_each_candidate} keeps it. *)

val for_each_candidate :
  t -> Subject.t -> level:int -> int -> (Pattern.t -> unit) -> int
(** [for_each_candidate db a ~level node try_pattern] calls
    [try_pattern] on every pattern that can match at subject node
    [node] — those the shape index keeps, no deeper than [level] (the
    node's {!Subject.levels} entry) — in enumeration order, and returns
    how many it called it on. No pattern roots at a PI. This is the
    enumeration order {!Mapper.for_each_node_match} uses. Safe to call
    from several domains at once. *)
