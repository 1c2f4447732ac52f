(** Static timing analysis for mapped netlists under the
    load-independent delay model (arrival / required / slack and
    critical-path extraction). *)

open Dagmap_core

type path_element = {
  pe_instance : int;        (** instance index *)
  pe_gate : string;         (** gate name *)
  pe_through_pin : int;     (** pin the critical signal enters by; -1 at path start *)
  pe_arrival : float;
}

type report = {
  arrival : float array;    (** per instance *)
  required : float array;   (** per instance, w.r.t. the worst output *)
  slack : float array;
  worst_delay : float;
  critical_output : string;
  critical_path : path_element list;  (** inputs-to-output order *)
}

val analyze : ?required_time:float -> Netlist.t -> report
(** [analyze nl] runs arrival and required propagation in
    {!Netlist.topological_order}. The default required time at every
    output is the worst arrival (so the critical path has zero
    slack). Raises [Failure] on an instance cycle. *)

val num_critical : report -> float -> int
(** Instances with slack below the given threshold. *)

val pp_path : Format.formatter -> report -> unit
