(** Differential fuzzing of the mapping flow.

    Generates seeded random networks
    ({!Dagmap_circuits.Generators.random_dag}), maps each one through
    {!Dagmap_flow.Flow} under a full configuration matrix — every
    engine, sequential and parallel labeling, each provided library
    (typically the base library and its supergate augmentation) — and
    runs the three {!Check} auditors on every result. A failing
    (circuit, configuration) pair is shrunk to a minimal network that
    still fails the same configuration, by greedily dropping primary
    outputs and bypassing logic nodes, and can be written out as a
    self-describing BLIF repro file.

    Everything is deterministic for a given {!config.seed}. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_flow

type config = {
  count : int;          (** number of random circuits *)
  seed : int;           (** base seed; circuit [i] derives its own *)
  max_nodes : int;      (** circuit sizes cycle below this bound *)
  libs : (string * Libraries.t) list;
      (** tagged libraries, e.g. [("base", lib); ("super", augmented)] *)
  modes : Flow.engine list;
  jobs : int list;      (** e.g. [[1; 4]]: sequential and 4 domains *)
  rounds : int;         (** simulation rounds per functional audit *)
  epsilon : float;      (** delay-audit tolerance *)
  max_failures : int;   (** stop fuzzing after this many failures *)
}

val default_config : Libraries.t -> config
(** 25 circuits from seed 42, up to 60 nodes each, the three pattern
    modes and the cut engine at priority 8, jobs 1 and 4, over the
    single given library. *)

type failure = {
  circuit : int;        (** index of the failing random circuit *)
  case_name : string;   (** ["lib/engine/jobs=N"] tag *)
  issues : Check.issue list;  (** audit issues on the shrunk network *)
  network : Network.t;  (** the shrunk failing network *)
  original_nodes : int;
  shrunk_nodes : int;
}

type outcome = {
  circuits : int;       (** circuits generated *)
  cases : int;          (** (circuit, configuration) pairs audited *)
  failures : failure list;
  seconds : float;      (** monotonic wall time of the whole sweep *)
  cases_per_second : float;
      (** audited-cases throughput — the sweep's perf trajectory
          number, reported by [techmap fuzz] and the bench JSON *)
}

val run : ?log:(string -> unit) -> config -> outcome
(** Run the sweep. [log] receives one progress line per circuit and
    per failure (default: silent). *)

val write_repro : string -> failure -> unit
(** Write the shrunk network as a BLIF file, preceded by [#] comment
    lines naming the failing configuration and its audit issues. The
    file re-parses with {!Dagmap_blif.Blif.read_file}. *)
