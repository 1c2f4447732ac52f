(** Domain-safe counters, gauges and histograms with a process-global
    registry.

    Every primitive is backed by [Atomic.t], so increments from
    concurrent {!Dagmap_core.Parmap} worker domains never lose
    updates, as plain [mutable int] fields do under parallel
    labeling. The registry maps stable dotted names
    (e.g. ["mapper.maps"]) to metrics; registration is
    find-or-create and mutex-guarded, while the metrics themselves
    are lock-free. *)

module Counter : sig
  type t

  val create : unit -> t
  (** A fresh unregistered counter (zero). Use {!val-counter} for a
      registry-backed one. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Gauge : sig
  type t

  val create : ?init:float -> unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  (** Atomic accumulate (CAS loop). *)

  val max_update : t -> float -> unit
  (** Atomic running maximum. *)

  val value : t -> float
  val reset : t -> unit
end

module Histogram : sig
  type t

  val default_bounds : float array
  (** Log-spaced seconds, 1e-6 .. 1e2. *)

  val create : ?bounds:float array -> unit -> t
  (** [bounds] are ascending upper bounds; an overflow bucket is
      added automatically. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val max_value : t -> float
  val reset : t -> unit
end

(** {1 Registry} *)

val counter : string -> Counter.t
(** Find or create the named counter. Raises [Invalid_argument] if
    the name is registered as a different metric type. *)

val gauge : string -> Gauge.t
val histogram : ?bounds:float array -> string -> Histogram.t

val counter_value : string -> int option
(** Read a registered counter by name ([None] if absent or not a
    counter). *)

val gauge_value : string -> float option

val names : unit -> string list
(** Registered names, sorted. *)

val reset_all : unit -> unit
(** Zero every registered metric (metrics stay registered). Tests and
    per-run exports use this to scope counters to one run. *)

val to_json : unit -> Json.t
(** Snapshot of the whole registry as one JSON object, fields sorted
    by name. Counters export as integers, gauges as floats,
    histograms as [{count, sum, mean, max, buckets}]. *)

val dump : unit -> string
(** Human-readable one-line-per-metric rendering of {!to_json}. *)
