(** Mapped netlists: the output of technology mapping.

    A netlist is a DAG of library gate instances over the subject
    graph's primary inputs. Delay evaluation uses the same
    load-independent pin-to-pin intrinsic delays the mappers
    optimize, so a mapper's predicted arrival times can be checked
    against the netlist (and are, in the test suite). *)

open Dagmap_genlib
open Dagmap_subject

type driver =
  | D_pi of int          (** subject id of a primary input *)
  | D_gate of int        (** instance index *)
  | D_const of bool      (** constant output (folded away logic) *)

type instance = {
  inst_id : int;
  gate : Gate.t;
  inputs : driver array;  (** one per gate pin *)
  subject_root : int;     (** subject node this instance implements *)
  covers : int array;     (** subject nodes absorbed by this instance *)
}

type t = {
  source : Subject.t;
  instances : instance array;
  outputs : (string * driver) list;
}

val area : t -> float
val num_gates : t -> int

val topological_order : t -> int array
(** Every instance index once, each after the instances that drive
    it: the depth-first post-order over fanins from roots [0 .. n-1],
    visiting a node's last pin first. The one instance order of
    STA, delay, evaluation, lint and simulation. Iterative, so safe
    on instance chains of any depth. Raises [Failure] on an instance
    cycle. *)

val arrival_times : t -> float array
(** Arrival time at each instance output (PIs arrive at 0). *)

val delay : t -> float
(** Worst arrival over all outputs. *)

val output_arrivals : t -> (string * float) list

val gate_histogram : t -> (string * int) list
(** Instance count per gate name, descending. *)

val duplication : t -> int
(** Number of subject-node coverings beyond the first: the sum over
    instances of covered subject nodes, minus the number of distinct
    covered subject nodes. DAG covering replicates logic exactly when
    this is positive; tree mapping always reports [0]. *)

val eval : t -> bool array -> (string * bool) list
(** Evaluate outputs under a PI assignment (indexed in subject PI
    order) by interpreting gate truth tables. *)

val max_fanout : t -> int
(** Largest fanout of any instance or PI in the mapped circuit. *)

val lint : t -> string list
(** Structural checks, collecting every violation instead of stopping
    at the first: instance ids match their indices, pin counts match
    the gate, driver indices in range, PI drivers are subject PIs,
    instance graph acyclic. Returns [[]] on a well-formed netlist.
    The {!Dagmap_check} layer builds its structural audit on top of
    this. *)

val validate : t -> unit
(** Structural checks: pins all driven, instance graph acyclic,
    driver indices in range. Raises [Failure] with the first
    {!lint} issue on violation. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable summary (delay, area, gate counts). *)
