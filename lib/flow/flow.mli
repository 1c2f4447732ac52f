(** The mapping pipeline every front end runs.

    The paper's flow is one pipeline: decompose a network into a
    NAND2-INV subject graph, label every node in topological order,
    then cover backward from the outputs. [techmap], the [techmapd]
    daemon, the bench harness and the fuzzer all run it through this
    module, which owns the decisions they share: which circuit a spec
    names, how a library is loaded, which engine a mode name picks and
    how that engine is called. The audit stays in [Dagmap_check], which
    builds on this module. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core

(** {1 Engines} *)

type engine =
  | Pattern of Mapper.mode  (** the paper's structural labeler *)
  | Cut of { priority : int }
      (** priority cuts with Boolean matching, keeping [priority] cuts
          per node ({!Dagmap_cutmap.Cut_mapper}) *)

val default_cut_priority : int
(** 8: on one core the cut engine's cost is linear in the budget, and
    8 priority cuts per node is the classic sweet spot. *)

val engine_of_string : ?priority:int -> string -> engine
(** ["tree"], ["dag"], ["dag-extended"] or ["cut"]; [priority]
    (default {!default_cut_priority}) applies to ["cut"] only. Raises
    [Failure] on any other name. *)

val engine_name : engine -> string
(** The name {!engine_of_string} accepts. *)

(** {1 Circuits} *)

val named_circuits : (string * (unit -> Network.t)) list
(** The named benchmarks: the ISCAS-like stand-ins and the arithmetic
    and sequential generators. *)

exception Too_large of string
(** A circuit spec names a size above {!max_spec_size}. *)

val max_spec_size : int
(** 100,000: the largest [n] {!circuit_of_spec} builds for
    ["chain:<n>"] or ["soc:<n>[:seed]"]. *)

val circuit_of_spec : string -> Network.t
(** A named benchmark, ["chain:<n>"] or ["soc:<n>[:seed]"]. Never
    reads a file and refuses sizes above {!max_spec_size} before
    generating anything, so the daemon resolves client specs with it.
    Raises {!Too_large} on a size above the limit and [Failure] on any
    other spec. *)

val load_circuit : string -> Network.t
(** {!circuit_of_spec} without the size limit, else the BLIF file of
    that name. *)

(** {1 Libraries} *)

val load_library : ?super:string -> string -> Libraries.t
(** A built-in library by name, else a genlib file, which must cover a
    bare INV and NAND2. With [super], the library is augmented with the
    supergates of that .sglib file ({!load_super}). Raises [Failure]
    on an unknown name or a library that cannot cover every subject
    node. *)

val load_super :
  base:(string -> Libraries.t) ->
  string ->
  Dagmap_super.Superlib.t * Libraries.t
(** [load_super ~base path] reads the .sglib file at [path] and
    augments [base name] with its supergates, where [name] is the base
    library the file names. Raises [Superlib.Format_error] on a
    malformed file or one generated from a different base. *)

(** {1 Decompose} *)

val decompose : Network.t -> Subject.t
(** The NAND2-INV subject graph every engine labels and every netlist
    names as its source: [Subject.of_network net]. *)

(** {1 Map} *)

type run =
  | Pattern_run of Mapper.result
  | Cut_run of Dagmap_cutmap.Cut_mapper.result

type result = {
  netlist : Netlist.t;
  predicted : (string * float) list;
      (** per-output label at the driver: what [Check.delay] audits *)
  par : Parmap.par_stats;  (** shape and timing of the level sweep *)
  run : run;               (** the engine's own result *)
}

val map : ?jobs:int -> engine -> Matchdb.t -> Subject.t -> result
(** Label and cover [g] with [engine]. [jobs] (default 1) is the
    number of domains the level sweep may use; the result is
    bit-identical for every [jobs]. Raises [Mapper.Unmappable] when
    some node has no match. *)
