(** A single flow table: priority-ordered flow entries with per-entry hit
    counters and an optional capacity limit, modeling the rule-table
    budget the paper's §4.2 is about (high-end switches hold about half a
    million rules).

    Lookups go through a layered match engine rather than a linear scan:
    a hash from destination MAC (the VMAC or trunk tag §4.2 forwards
    on) to the rules pinning it, then, for rules with no MAC pin, an
    exact-match hash layer over the other discrete fields (in_port,
    ethertype, ...), IP prefix bands backed by {!Sdx_net.Prefix_trie},
    and a residual priority-ordered scan, merged priority-correctly so
    the result (and every per-entry counter) is identical to the linear
    scan's.  A lookup allocates nothing.  The engine maintains itself
    incrementally on {!install}/{!remove} and re-partitions wholesale
    past a staleness threshold; {!install_all} is a single
    sort-and-build batch. *)

open Sdx_net
open Sdx_policy

type t

exception Table_full

val create : ?capacity:int -> unit -> t

val install : t -> Flow.t -> unit
(** OpenFlow ADD semantics: an entry with the same priority and match is
    overwritten in place (its counter resets).
    @raise Table_full when the capacity would be exceeded. *)

val install_all : t -> Flow.t list -> unit

val remove : t -> priority:int -> pattern:Pattern.t -> unit

type op =
  | Install of Flow.t  (** {!install} *)
  | Remove of (int * Pattern.t)  (** {!remove} of [(priority, pattern)] *)

val apply : t -> op list -> unit
(** The ops in order, with the same result as issuing them one by one.
    A batch no longer than the engine's staleness budget (64 + twice the
    entry count) keeps per-entry engine maintenance; a longer one only
    updates the entry map and rebuilds the engine once, like
    {!install_all}.
    @raise Table_full when an [Install] would exceed the capacity; the
    ops before it stay applied. *)

module KeyTbl : Hashtbl.S with type key = int * Pattern.t
(** Hash tables keyed the way entries are: by (priority, pattern). *)

val clear : t -> unit

val remove_where : t -> (Flow.t -> bool) -> int
(** Removes all matching entries, returns how many were removed. *)

val lookup : t -> Packet.t -> Flow.t option
(** Highest-priority matching entry; among equal priorities the earliest
    installed wins.  Dispatched through the layered engine; increments
    the winning entry's packet counter.  Allocates nothing but the
    1-in-64 latency sample. *)

val lookup_linear : t -> Packet.t -> Flow.t option
(** Reference semantics: a linear scan over the priority-sorted entry
    list.  Pure — touches no packet counter and no metric — so it can
    serve as the oracle for equivalence tests and as the baseline the
    [bench dataplane] target measures the engine against. *)

(** {2 Read-copy-update snapshots}

    A snapshot is an immutable copy of the engine plus the sorted entry
    array, built by the table's owning domain ({!snapshot}) and safe to
    probe concurrently from any number of reader domains — nothing in it
    is ever mutated after publication, so lookups never lock.  Any
    mutation on the live table retires the published snapshot; readers
    holding one keep a consistent pre-mutation view until they call
    {!snapshot} again.  Snapshot lookups are pure: packet counters and
    metrics stay owned by the writer domain. *)

type snapshot

val snapshot : t -> snapshot
(** The published snapshot, building (and atomically publishing) a fresh
    one if a mutation retired it.  Must be called from the domain that
    owns the table (a contract asserted by the race detector under
    [SDX_RACE=1]); the result may be shared with any domain. *)

val published_snapshot : t -> snapshot option
(** The currently published snapshot, if no mutation has retired it.
    Unlike {!snapshot} this never builds and is safe to call from any
    domain — it is the reader side of the RCU handshake. *)

val snapshot_of_flows : Flow.t list -> snapshot
(** The snapshot {!install_all} on a fresh table and then {!snapshot}
    would publish, built with no live table: OpenFlow ADD semantics
    among the flows, and no flow-mod, rebuild or snapshot metric
    moves.  For probing a rule list that no switch holds. *)

val searcher : snapshot -> Packet.t -> Flow.t option
(** [searcher snap] is a lookup function with a private cursor: create
    one per reader domain and apply it per packet.  The partial
    application allocates the cursor, so hot loops must hold on to
    [let find = searcher snap] rather than calling [searcher snap pkt]
    per packet; applying [find] allocates nothing. *)

val snapshot_linear : snapshot -> Packet.t -> Flow.t option
(** Linear-scan oracle over the snapshot's frozen entry array: agrees
    with {!searcher} on this snapshot even while the live table keeps
    mutating, which makes concurrent equivalence checks exact. *)

val snapshot_size : snapshot -> int
val snapshot_seq : snapshot -> int
(** Table sequence number at build time (monotone across rebuilds). *)

val size : t -> int
val capacity : t -> int option
val entries : t -> Flow.t list
(** In match order (descending priority). *)

val hits : t -> priority:int -> pattern:Pattern.t -> int
(** Packet counter of an entry; 0 when absent.  O(1). *)

type engine_stats = {
  mac_entries : int;  (** rules in the destination-MAC layer *)
  mac_keys : int;  (** distinct destination MACs they pin *)
  mac_largest_bucket : int;  (** most rules pinning one MAC *)
  exact_shapes : int;  (** distinct pinned-field shapes in the exact layer *)
  exact_entries : int;
  prefix_entries : int;
  residual_entries : int;
  rebuilds : int;  (** full re-partitions this table has performed *)
  snapshots : int;  (** RCU snapshots this table has published *)
}

val engine_stats : t -> engine_stats
(** Current partition of the entries across the engine's layers. *)

val pp : Format.formatter -> t -> unit
