(** Bit-parallel logic simulation.

    All simulators evaluate 64 input assignments at once: each input
    is a 64-bit word whose bit [k] is the input's value in assignment
    [k]. Input order follows the subject PI contract: network PIs in
    declaration order, then latch outputs.

    {!subject} and {!netlist} are staged. Applied to the circuit
    alone, they do all per-circuit work once: the evaluation order,
    the fanin slots in flat int arrays, each distinct gate's
    expression compiled to straight-line 64-bit word operations, and
    one unboxed value buffer. The closure they return runs one round
    per call; a round costs a few word operations per gate and
    allocates only its output list. Stage once and call the closure
    every round: [fun w -> Simulate.netlist nl w] stages again on
    every call.

    A staged closure owns its value buffer, so it must never run on
    two domains at once. Stage one per domain (each daemon request
    stages its own). *)

open Dagmap_logic
open Dagmap_subject
open Dagmap_core

val network : Network.t -> int64 array -> (string * int64) list
(** Evaluate primary (and latch-input pseudo-) outputs of a network.
    The input array covers PIs then latch outputs; latch inputs are
    reported as [$latch_in<i>] pseudo-outputs, matching
    {!Subject.of_network} naming. Not staged. *)

val subject : Subject.t -> int64 array -> (string * int64) list
(** [subject g] stages the subject graph; each call of the result
    evaluates its outputs, then its constant outputs. Raises
    [Invalid_argument] on fewer input words than PIs. *)

val netlist : Netlist.t -> int64 array -> (string * int64) list
(** [netlist nl] stages the mapped netlist in
    {!Netlist.topological_order}; each call of the result evaluates
    its outputs. Staging raises [Failure] on an instance cycle and
    [Invalid_argument] on a [D_pi] that is not a subject PI or an
    instance whose input count differs from its gate's pin count;
    a call raises [Invalid_argument] on fewer input words than
    PIs. *)

val num_inputs_network : Network.t -> int
(** PIs plus latch outputs. *)

val random_words : Random.State.t -> int -> int64 array
(** [random_words st n] draws [n] uniform 64-bit words. *)
