(** Post-map verification: the mapper's paper-level invariants as
    executable auditors.

    The paper's claim is {e delay optimality of a functionally
    equivalent cover}: after mapping, (1) the netlist must be
    structurally well formed, (2) the label the DP computed for every
    primary output must equal the STA arrival of the mapped netlist
    at that output under the same intrinsic delay model, and (3) the
    netlist must be simulation-equivalent to the subject graph it
    covers. Each auditor checks one of these; {!audit} runs all
    three. Every mapper configuration (mode, jobs, caching,
    supergates) must pass identically — the {!Fuzz} harness sweeps
    that matrix over random circuits. *)

open Dagmap_subject
open Dagmap_core
open Dagmap_sim

type issue =
  | Structural of string
      (** a {!Netlist.lint} violation or cover-level inconsistency *)
  | Delay_mismatch of {
      output : string;
      predicted : float;   (** the mapper's label at the PO driver *)
      observed : float;    (** STA arrival in the mapped netlist *)
    }
  | Not_equivalent of Equiv.verdict
      (** simulation disagreement; never [Equivalent] *)

val pp_issue : Format.formatter -> issue -> unit

val structural : Netlist.t -> issue list
(** Structural lint. Extends {!Netlist.lint} (pin arity, driver
    ranges, acyclicity) with cover-level checks: no two instances
    implement the same subject node, every instance's [subject_root]
    is among its covered nodes, no instance covers a primary input,
    every instance is reachable from some output (no dangling logic),
    and output names are unique. *)

val delay :
  ?epsilon:float ->
  predicted:(string * float) list ->
  Netlist.t ->
  issue list
(** Delay audit: run {!Dagmap_timing.Sta.analyze} on the netlist and
    compare its per-output arrivals against [predicted] (the mapper's
    labels, see {!Mapper.predicted_arrivals}) output-by-output within
    [epsilon] (default [1e-6]) — not just the global worst delay.
    Output-name set differences between the two sides are reported as
    {!Structural}. *)

val functional :
  ?rounds:int -> ?seed:int -> Subject.t -> Netlist.t -> issue list
(** Functional audit: 64-lane random-simulation equivalence of the
    mapped netlist against the subject graph
    ({!Equiv.compare_sims}; [rounds] defaults to 16). *)

val audit :
  ?epsilon:float ->
  ?rounds:int ->
  ?seed:int ->
  Subject.t ->
  predicted:(string * float) list ->
  Netlist.t ->
  issue list
(** All three auditors. When the structural audit fails its issues
    are returned alone — timing and simulation are undefined on a
    malformed netlist (a cycle would hang the simulator). *)

val audit_result :
  ?epsilon:float ->
  ?rounds:int ->
  ?seed:int ->
  Subject.t ->
  Mapper.result ->
  issue list
(** [audit] applied to a mapper result, with [predicted] taken from
    {!Mapper.predicted_arrivals}. *)
