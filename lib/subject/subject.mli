(** Subject graphs: NAND2-INV decompositions of Boolean networks.

    The subject graph is the canonical matching substrate of
    Keutzer-style technology mapping. Nodes are primary inputs,
    two-input NANDs or inverters; construction performs structural
    hashing (identical NANDs are shared) and inverter-pair
    cancellation, and folds constants away. Latch boundaries become
    pseudo-PIs (latch outputs) and pseudo-POs (latch inputs) so the
    combinational core can be mapped, as in the paper's Section 4.

    The graph is stored flat: two off-heap int vectors, node = index,
    so labeling sweeps are cache-friendly int reads the GC never
    scans, and structural hashing keys on packed ints. Encoding (one
    int pair per node, [-1] as the sentinel):

    {v
      fanin0   fanin1    node kind
      ------   ------    ---------
        -1       -1      PI (or latch output)
        x >= 0   -1      INV(x)
        x >= 0   y >= 0  NAND(x, y), x <= y for hashed nodes
    v}

    Fanins always point at strictly smaller indices, so index order is
    a topological order. Hot loops read the fanin vectors or
    {!is_pi}; {!kind} is the boxed per-node view for code that
    pattern-matches, and allocates a block per NAND. *)

open Dagmap_logic

type kind =
  | Spi                 (** primary input or latch output *)
  | Snand of int * int  (** two-input NAND of earlier nodes *)
  | Sinv of int         (** inverter over an earlier node *)

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  fanin0 : iarr;                 (** per-node first fanin / PI sentinel *)
  fanin1 : iarr;                 (** per-node second fanin / INV sentinel *)
  n : int;                       (** number of nodes *)
  num_pis : int;
  pi_nodes : int array;          (** node ids of the PIs, in PI order *)
  pi_names : string array;       (** names parallel to [pi_nodes] *)
  outputs : (string * int) array;
      (** (name, driving node): POs, then latch data inputs *)
  const_outputs : (string * bool) list;
      (** outputs whose function folded to a constant *)
  n_latches : int;               (** trailing [n_latches] outputs and PIs
                                     are latch boundaries, in order *)
  mutable levels_memo : int array option;
      (** memoized {!levels} result (private record: only {!levels}
          writes it) *)
}

type style =
  | Balanced    (** n-ary AND/OR chains reduced as balanced trees *)
  | Left_skew   (** ((a op b) op c) op d — chains *)
  | Right_skew  (** a op (b op (c op d)) *)

val of_network : ?style:style -> Network.t -> t
(** Decompose every logic node into NAND2-INV form (De Morgan on the
    node expressions, XOR in SOP form). [style] (default {!Balanced})
    chooses how n-ary AND/OR chains in the node expressions are
    re-associated — the paper (§4, discussing Lehman et al.) notes
    that mapping optimality is relative to this arbitrary initial
    choice; the harness measures the sensitivity. Subject PI order is
    the network's PI declaration order followed by latch outputs in
    latch order; outputs are the POs, then [$latch_in<i>]
    pseudo-outputs. *)

val num_nodes : t -> int
val is_pi : t -> int -> bool
val fanin0 : t -> int -> int
val fanin1 : t -> int -> int

val kind : t -> int -> kind
(** Boxed view of one node. *)

val fanins : t -> int -> int list

val mem_bytes : t -> int
(** Off-heap bytes held by the fanin vectors. *)

val levels : t -> int array
(** Unit-delay level per node (PIs at 0; NAND and INV each count 1);
    computed by a single forward sweep on first use and memoized —
    repeated calls (and {!level_ranges}/{!by_level}/{!depth}, which
    all start from it) share one array. Callers must not mutate the
    result. *)

val fanout_counts : t -> int array
(** Fanout per node; each output reference counts as one fanout. *)

val depth : t -> int
(** Max level over output drivers. *)

val level_ranges : t -> int array * int array
(** [(order, starts)]: [order] is a permutation of node ids sorted by
    (level, id); level [l] occupies [order.(starts.(l)) ..
    order.(starts.(l+1) - 1)]. [starts] has [max-level + 2] entries.
    These dense index ranges are the parallelization fronts of any
    topological-order DP (see {!Dagmap_core.Parmap}). *)

val by_level : t -> int array array
(** Node ids grouped by level, ascending node id within each group:
    the slices of {!level_ranges} as separate arrays. *)

val pi_ids : t -> int list
(** Node ids of the PIs, in order. *)

val pi_name : t -> int -> string
(** The name of the PI at a node id. Raises [Invalid_argument] if the
    node is not a PI. *)

val eval : t -> bool array -> (string * bool) list
(** Evaluate all outputs under a PI assignment (indexed in PI order);
    includes constant outputs. *)

val stats : t -> string
(** ["subject: pi= out= nand= inv= depth="]. *)

val arena_stats : t -> string
(** The same counts under the [arena:] label, plus the off-heap bytes:
    the line [techmap map --stats] prints. *)

val to_dot : t -> string

(** The structurally hashing builder {!of_network} runs, also used by
    tests and by the Figure 1 / Figure 2 constructions in the
    benchmark harness. *)
module Builder : sig
  type graph = t
  type t

  val create : ?hint:int -> unit -> t
  (** [hint] pre-sizes the node vectors (default 1024). *)

  val pi : t -> string -> int
  val nand : t -> int -> int -> int
  (** Structurally hashed (commutative); [nand x x] folds to
      [inv x]. *)

  val inv : t -> int -> int
  (** Cancels inverter pairs. *)

  val raw_nand : t -> int -> int -> int
  val raw_inv : t -> int -> int
  (** Non-hashing, non-cancelling variants: create a fresh node
      unconditionally (for building specific test topologies). *)

  val output : t -> string -> int -> unit
  val const_output : t -> string -> bool -> unit
  val finish : ?n_latches:int -> t -> graph
end
