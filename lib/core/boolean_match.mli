(** Boolean matching of cut functions against a gate library.

    The library is preprocessed once: for every gate of bounded
    arity, every input-permutation variant of its function is stored
    in a hash table keyed directly by the truth table. A cut then
    matches by a single lookup — matching is exact on the function,
    independent of how the subject graph happens to be decomposed
    (the key robustness advantage over structural matching).

    Supergates need no special ingestion path: {!Dagmap_super}
    composes each supergate into an ordinary [Gate.t] whose [func] is
    the composed truth table and whose pin delays carry the fusion
    discount, and [Superlib.augment] appends them to the base
    library's gate list — so [prepare] on an augmented library indexes
    them exactly like primitive cells, fused delays and all
    ({!num_super_entries} reports how many made it in). The prepared
    index is shared with the structural side through
    {!Matchdb.boolean}: one table per library serves the cut mapper
    and every bench/CLI consumer.

    Scope: permutation (P) equivalence only. Input negations are not
    absorbed into matches (they would need inverters on the wires);
    NAND2-INV subject graphs expose both polarities as nodes, so the
    practical loss is small. *)

open Dagmap_logic
open Dagmap_genlib

type entry = {
  gate : Gate.t;
  pin_of_input : int array;
  (** [pin_of_input.(j)] is the gate pin to which the [j]-th cut
      input connects *)
}

type t

val prepare : ?max_arity:int -> Libraries.t -> t
(** Index all gates with at most [max_arity] (default 6) pins. *)

val lookup : t -> Truth.t -> entry list
(** All gates realizing exactly this function of [num_vars] inputs. *)

val num_entries : t -> int

val num_super_entries : t -> int
(** How many indexed entries are supergate wirings. *)

val arity_histogram : t -> (int * int) list
(** Indexed functions per arity (for reporting). *)

val max_arity : t -> int
(** Largest indexed arity (mappers clamp their cut width to this:
    wider cuts can never match and would crowd out useful ones). *)
