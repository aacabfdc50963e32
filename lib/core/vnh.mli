(** Allocator of virtual next hops: (virtual IP, virtual MAC) pairs drawn
    from a private pool (§4.2).  The virtual MAC is the data-plane tag;
    the virtual IP is the control-plane signal carried in BGP next-hop
    fields and resolved to the MAC by the ARP responder.

    The fast path of §4.3.2 mints a fresh VNH per updated prefix group,
    so a long churn run would eventually drain any finite pool.  The
    allocator therefore manages a full lifecycle: allocation reports
    exhaustion as a value rather than an exception, superseded
    allocations are {!release}d back onto a free-list for reuse, and
    {!pressure} lets the runtime trigger a background re-optimization
    before the pool actually runs dry. *)

open Sdx_net

type t

val create : ?pool:Prefix.t -> unit -> t
(** [pool] defaults to [172.16.0.0/12].  Virtual MACs are drawn from the
    locally-administered range starting at [02:00:00:00:00:00]; a pool
    index always maps to the same (IP, MAC) pair, so a released slot is
    reused with an identical identity. *)

val alloc : t -> [ `Fresh of Ipv4.t * Mac.t | `Exhausted ]
(** Pops the free-list first, then extends the high-water mark.
    [`Exhausted] means every index is live — the caller must degrade
    (the runtime falls back to a re-optimization, which hands back every
    VNH no class holds) rather than crash. *)

val fresh : t -> Ipv4.t * Mac.t
(** {!alloc}, for callers that have already ruled exhaustion out (the
    base compiler runs against a freshly {!reset} pool, the rebuild
    against one {!retain}ed to its surviving classes).
    @raise Failure when the pool is exhausted. *)

val release : t -> Ipv4.t -> bool
(** Returns a single allocation to the free-list.  [false] (a no-op)
    when the address is outside the pool, was never handed out, or was
    already released — idempotent, so retiring code paths need not track
    double-frees. *)

val allocated : t -> int
(** Number of live allocations. *)

val capacity : t -> int
(** Usable pool slots (the all-zero host index is never handed out). *)

val pressure : t -> float
(** [allocated / capacity] — the runtime re-optimizes in place when this
    crosses its pressure threshold, reclaiming the whole pool before
    {!alloc} can report exhaustion mid-burst. *)

val reclaimed_total : t -> int
(** Cumulative successful {!release}s; survives {!reset}. *)

val peak_live : t -> int
(** High-water mark of simultaneously live allocations; survives
    {!reset}. *)

type stats = {
  capacity : int;
  live : int;
  free : int;  (** free-list length *)
  peak_live : int;
  reclaimed_total : int;
}

val stats : t -> stats

val reset : t -> unit
(** Returns every allocation to the pool and clears the free-list (used
    by full compiles, which rebuild the VNH assignment from scratch).
    Cumulative counters are kept. *)

val retain : t -> Ipv4.t list -> unit
(** [retain t live] {!release}s every allocation not in [live], in
    ascending index order: the re-optimization's reconciliation, which
    keeps each surviving class's VNH where {!reset} would renumber them
    all. *)

val is_virtual : t -> Ipv4.t -> bool
(** Whether the address lies in the allocator's pool (so a next-hop can
    be recognized as virtual). *)
