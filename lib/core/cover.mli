(** Netlist assembly from per-node choices: the one builder behind the
    pattern mapper's cover, the cut mapper's cover and area recovery.

    A {!choice} describes, for each subject node that gets an
    instance, its gate, which subject nodes drive its pins, and the
    subject nodes it covers. {!walk} finds the nodes the outputs need
    (paper §3.3: a FIFO seeded with the output drivers, each popped
    node requiring its pin nodes); {!netlist} numbers the instances
    in a given order and wires them. Both run over flat arrays: a
    needed bitmap, an int FIFO and an instance-index array. *)

open Dagmap_genlib
open Dagmap_subject

type choice = {
  gate : int -> Gate.t;  (** the gate of a node's instance *)
  inputs : int -> (int -> int -> unit) -> unit;
      (** [inputs node f] calls [f pin driver] for every pin of the
          node's gate that a subject node drives, in the order the
          walk requires them; a pin never named is tied to constant
          false *)
  covers : int -> int array;  (** subject nodes the instance absorbs *)
  constant : int -> bool option;
      (** [Some b] for a node folded to the constant [b]: it drives
          [b] and gets no instance *)
}

val no_constants : int -> bool option
(** [fun _ -> None]. *)

val walk : Subject.t -> choice -> int array
(** The nodes the outputs need, in reverse pop order of the FIFO —
    the instance order both mapping engines emit. PIs and constant
    nodes are never needed. *)

val netlist : Subject.t -> choice -> int array -> Netlist.t
(** [netlist g c order]: instance [i] implements subject node
    [order.(i)]; [order] must hold every node an instance or an
    output reads. [g] becomes [Netlist.source]. *)
