(** Hash-consed forwarding decision diagrams (FDDs) — the compiler's
    intermediate representation for policy composition.

    An FDD is an ordered binary decision diagram whose internal nodes
    test one header field against one value (an exact match, or a CIDR
    prefix for the IP fields) and whose leaves are action sets
    ({!Mods.t} lists, duplicate-free and sorted, exactly a classifier
    rule's action).  Taking the true edge of every test along a path and
    reading the leaf gives the packet's action set, so an FDD denotes
    the same [packet -> action set] function a total classifier does —
    but composition ([union], [seq], [ite]) is a memoized graph walk
    instead of a rule cross-product, and structurally equal
    sub-diagrams are shared through a unique table.

    Tests along every root-to-leaf path are strictly increasing in a
    canonical key order: field index first (port, src_mac, dst_mac,
    eth_type, src_ip, dst_ip, proto, src_port, dst_port), then value
    (longer prefixes before shorter ones, so a path's positive prefix
    tests refine left to right).  The order is what makes hash-consing
    effective: equal functions built along different routes tend to
    collapse to the same node.

    All nodes, the unique table and the memo tables live in a
    {!manager}.  A manager is {e not} domain-safe; the compiler builds
    every block of a compile in one manager, on one domain.  Diagrams
    from different managers must never be mixed in one operation. *)

open Sdx_net

type manager
(** Unique table + memo caches + counters. *)

type t
(** A diagram handle.  Only valid with the manager that built it. *)

val create : unit -> manager

val drop : manager -> t
(** The diagram mapping every packet to the empty action set. *)

val id : manager -> t
(** The diagram mapping every packet to [[Mods.identity]]. *)

val node_id : t -> int
(** The node's unique id within its manager — hash-consing makes it a
    structural identity, so it can key caches of per-diagram results
    (e.g. the compiler's extraction cache). *)

val const : manager -> Mods.t list -> t
(** A single leaf holding the (canonicalized) action set. *)

val of_pred : manager -> Pred.t -> t
(** A boolean diagram: [[Mods.identity]] where the predicate holds,
    empty elsewhere — the FDD counterpart of
    {!Classifier.compile_pred}. *)

val of_policy : manager -> Policy.t -> t
(** Compile a policy; agrees with {!Policy.eval} on every packet. *)

val union : manager -> t -> t -> t
(** Parallel composition: pointwise union of action sets. *)

val seq : manager -> t -> t -> t
(** Sequential composition: each action of the first diagram rewrites
    the packet and feeds the second; the results are unioned. *)

val ite : manager -> t -> t -> t -> t
(** [ite mgr c a b]: where boolean diagram [c] passes, behave as [a],
    elsewhere as [b]. *)

val restrict : manager -> Pattern.t -> t -> t
(** [restrict mgr p d] confines [d] to packets matching [p]; packets
    outside [p] get the empty action set. *)

val eval : t -> Packet.t -> Mods.t list
(** The action set of one packet, by walking the diagram. *)

val to_classifier : t -> Classifier.t
(** Extract a priority-ordered total classifier with identical
    first-match semantics: paths are emitted depth-first, true edge
    before false edge, each rule's pattern the conjunction of the
    positive tests on its path.  Unsatisfiable paths are skipped and
    duplicate patterns deduplicated (a later equal pattern can never be
    the first match).  The result is deterministic: it depends only on
    the diagram's structure, not on the manager or construction
    order. *)

val size : t -> int
(** Reachable node count (shared nodes counted once). *)

type stats = {
  nodes : int;  (** nodes ever created in the manager (monotone) *)
  memo_hits : int;  (** memo-cache hits across all operations (monotone) *)
  unique_table_size : int;  (** live entries in the unique table *)
}

val stats : manager -> stats

val check_unique : t -> bool
(** Hash-consing invariant: no two distinct reachable nodes are
    structurally equal.  For property tests. *)

val pp : Format.formatter -> t -> unit
