(** A zero-dependency, domain-safe metrics registry.

    The controller runs on one domain, but a process may spawn more
    (the benches' data-plane readers, say), so every metric primitive
    here is safe to mutate from any domain: counters and histogram
    buckets are [Atomic] cells, float accumulators use a compare-and-set
    loop, and registration (get-or-create) is serialized on a
    per-registry mutex.

    Metrics are identified by a name plus an optional label set,
    Prometheus-style: [sdx_fabric_rx_packets{asn="AS200"}].  Handles are
    cheap to cache at module init ([let c = Registry.counter "..."]) and
    survive {!reset}, which zeroes values without dropping
    registrations — so instrumented libraries can hold handles for the
    life of the process while tests snapshot-and-reset freely.

    Two render paths, both schema-stable: a human text table ({!pp}) and
    a JSON document ({!to_json}).  Both operate on {!sample} lists, so
    sources other than a live registry (e.g.
    {!Sdx_fabric.Telemetry.samples}) share the same exporters. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** [add] with a negative delta raises [Invalid_argument]: counters
      are monotonic by contract so that rate-style consumers can diff
      successive scrapes. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val percentile : t -> float -> float
  (** Estimated from the fixed bucket counts by linear interpolation
      within the owning bucket; [nan] while the histogram is empty.
      Values in the overflow bucket report the largest finite bound. *)

  val default_buckets : float array
  (** Log-spaced latency bounds in seconds, 1µs to 10s — wide enough for
      both the sub-millisecond fast path and the naive-compilation
      ablation. *)
end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; p50 : float; p90 : float; p99 : float }

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;  (** sorted by label key *)
  sample_value : value;
}

type t

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation site
    records into. *)

val counter : ?registry:t -> ?labels:(string * string) list -> string -> Counter.t
val gauge : ?registry:t -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  ?registry:t -> ?labels:(string * string) list -> ?buckets:float array -> string -> Histogram.t
(** All three are get-or-create on the (name, labels) key.
    @raise Invalid_argument if the key is already registered as a
    different metric kind. *)

val samples : t -> sample list
(** Current values, in registration order. *)

val reset : t -> unit
(** Zeroes every registered value; registrations (and cached handles)
    stay valid. *)

val pp_samples : Format.formatter -> sample list -> unit
val pp : Format.formatter -> t -> unit

val json_array_of_samples : sample list -> string
(** The bare JSON array, for embedding in a larger report document. *)

val json_of_samples : sample list -> string
val to_json : t -> string
(** [{"metrics": [{"name": ..., "labels": {...}, "type": ..., ...}]}] *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the {!Trace} sink. *)
