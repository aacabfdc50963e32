(** The [sdx_race] synchronization shim: the only way the rest of the
    tree is allowed to touch [Mutex], [Atomic] and [Domain] (the
    concurrency lint rejects raw usage outside [lib/sanitize], and raw
    [Condition] too, which has no shim).

    In [Off] mode (the default, the production path) every wrapper is a
    passthrough; locations created while the detector is off carry no
    state.  In [Record] mode every operation records vector-clock
    happens-before edges and {!Tracked} plain locations are checked for
    data races, attributed with allocation and access backtraces.  In
    [Model] mode (entered by {!Explore.run}) operations on tracked
    objects become deterministic-scheduler yield points over virtual
    threads.

    [SDX_RACE=1] in the environment enables Record mode from process
    start and installs an exit hook that prints any findings (and
    writes them as JSON to [SDX_RACE_REPORT] if set). *)

type mode = Off | Record | Model

val mode : unit -> mode

val set_mode : mode -> unit
(** Switching to [Record] or [Model] resets the detector session:
    thread registrations and per-location clocks from earlier sessions
    are invalidated lazily.  Locations created while the mode was [Off]
    remain untracked for their lifetime. *)

(** {1 Race reports} *)

type access = { a_tid : int; a_thread : string; a_site : string }

type report = {
  r_kind : string;  (** e.g. ["write-write race"], ["single-writer violation"] *)
  r_location : string;
  r_alloc_site : string;  (** backtrace captured at [Tracked.create] *)
  r_first : access;
  r_second : access;
  r_trace : string list;  (** model-mode interleaving, oldest first *)
}

val races : unit -> report list
val clear_races : unit -> unit
val report_summary : report -> string
val reports_json : report list -> string

(** {1 Shims} *)

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val protect : t -> (unit -> 'a) -> 'a
end

module Atomic : sig
  type 'a t

  val make : ?name:string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
end

(** Explicitly tracked plain mutable locations: the structure's owner
    calls {!Tracked.write} next to every mutation of the location and
    {!Tracked.read} next to every read that may run concurrently.  The
    detector flags any pair of accesses not ordered by happens-before
    (write/write, write/read or read/write), with the location's
    allocation site and both access sites. *)
module Tracked : sig
  type t

  val create : string -> t
  val read : t -> unit
  val write : t -> unit
end

(** Single-writer contract assertions: {!Owner.assert_owner} binds the
    location to the first asserting thread of the detector session and
    reports any later assertion from a different thread. *)
module Owner : sig
  type t

  val create : string -> t
  val assert_owner : t -> unit
end

module Domain : sig
  type 'a t

  val spawn : ?name:string -> (unit -> 'a) -> 'a t
  val join : 'a t -> 'a

  val self_index : unit -> int
  (** The detector's dense index for the calling thread (registers it
      if needed). *)

  val recommended_count : unit -> int
  (** [Domain.recommended_domain_count] passthrough. *)
end

(** {1 Internal interfaces for the explorer}

    Everything below is the contract between this module and
    {!Explore}; scenario and production code never touches it. *)

type pending_op = { op_loc : int; op_write : bool; op_desc : string }

type _ Effect.t +=
  | Yield : pending_op -> unit Effect.t
  | Block : pending_op * (unit -> bool) -> unit Effect.t
  | Spawn : string * (unit -> unit) -> int Effect.t

module Model : sig
  val begin_execution : unit -> unit
  val new_vthread : string -> int
  val set_current : int -> unit
  val clear_current : unit -> unit
  val set_trace_hook : (unit -> string list) -> unit
  val set_done_hook : (int -> bool) -> unit
end
