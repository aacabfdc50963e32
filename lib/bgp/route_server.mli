(** The SDX route server (§3.2, §5.1).

    Collects announcements from every participant, runs the BGP decision
    process on behalf of each participant (respecting export policies),
    and exposes both the per-participant best route and the full feasible
    set — the SDX lets a participant forward to {e any} feasible next-hop
    AS, not only the best one. *)

open Sdx_net

type t

type change = {
  prefix : Prefix.t;
  best_changed_for : Asn.t list;
      (** receivers whose best route for [prefix] changed *)
}

val create :
  ?export:(advertiser:Asn.t -> receiver:Asn.t -> bool) ->
  ?route_filter:(Route.t -> receiver:Asn.t -> bool) ->
  Asn.t list ->
  t
(** [create participants] builds a route server for the given peers.
    [export] is the static export-policy matrix; [route_filter] is the
    per-route refinement (e.g. the community conventions of
    {!Peering.community_filter}).  Defaults export every route to every
    other participant.  A route is never exported back to its
    advertiser.

    [export] must be a pure function of the pair: [create] asks it once
    per (advertiser, receiver) and keeps the answers as one receiver
    set per advertiser, its export row, which never changes afterwards.
    [route_filter] must likewise depend only on the route and the
    receiver.  Bit [i] of every receiver set stands for the [i]-th
    participant.
    @raise Invalid_argument if a participant is listed twice. *)

val participants : t -> Asn.t list
val is_participant : t -> Asn.t -> bool

val exports_to : t -> advertiser:Asn.t -> receiver:Asn.t -> bool

val loop_free : Route.t -> receiver:Asn.t -> bool
(** Standard BGP loop prevention, applied on every export: a route whose
    AS path contains the receiver's own AS number is never handed to it
    (one half of §4.1's forwarding-loop invariants). *)

val apply : t -> Update.t -> change
(** Process one update; [change.best_changed_for] lists, in
    {!participants} order, the receivers whose best route for the prefix
    moved, and is empty when the update moved none.

    Only the advertiser's route changed, so receivers are settled a set
    at a time.  A route's exported set is its advertiser's export row
    minus the participants on its AS path, filtered member by member
    only when [route_filter] is not the trivial one.  Receivers offered
    neither the old nor the new version, or equal versions, are done at
    once.  One walk of the ranked list hands every other receiver its
    best other route, and each (route, offered before, offered after)
    group gets one verdict.  The cost is a few set operations, each
    [participants / 63] words, per ranked route the walk visits (it
    stops once every receiver is settled), not a loop over the
    participants.
    @raise Invalid_argument if the update's peer is not a participant. *)

val apply_burst : t -> Update.t list -> change list

val load : t -> Update.t -> unit
(** Notification-free bulk load: the same RIB mutations as {!apply} but
    without working out which receivers' best routes changed.  Only for
    initial table builds, before any state derived from the server
    exists.
    @raise Invalid_argument if the update's peer is not a participant. *)

val fold_adj_in :
  t -> via:Asn.t -> (Prefix.t -> Route.t -> 'a -> 'a) -> 'a -> 'a
(** Folds over every route [via] currently announces, in increasing
    prefix order.  One shared scan here replaces the per-spec
    {!reachable_prefixes} materialization in the compiler's
    export-vector pipeline. *)

val fold_announced_overlapping :
  t -> Prefix.t -> (Prefix.t -> 'a -> 'a) -> 'a -> 'a
(** Folds over announced prefixes overlapping the argument (covering or
    covered by it), without touching the rest of the table — covering
    bindings shortest first, then the covered subtree in prefix order. *)

val trivial_route_filter : t -> bool
(** Whether the server was built with the default (all-accepting)
    [route_filter] — callers may then skip per-(route, receiver) filter
    calls in bulk scans. *)

val route_filter_passes : t -> Route.t -> receiver:Asn.t -> bool
(** The server's [route_filter] verdict for one route and receiver
    (export-policy and loop checks NOT included). *)

val candidates : t -> Prefix.t -> Route.t list
(** Every route currently announced for the prefix, one per advertiser,
    in ascending advertiser order (sorted on each call). *)

val ranked : t -> Prefix.t -> Route.t list
(** The same routes, most preferred first: equal to
    [Decision.sort (candidates t prefix)], but kept ranked as routes
    arrive and leave, so reading it costs nothing. *)

val route_from : t -> via:Asn.t -> Prefix.t -> Route.t option
(** The route [via] currently announces for the prefix, if any. *)

val best : t -> receiver:Asn.t -> Prefix.t -> Route.t option
(** The route the server advertises to [receiver] for this prefix: the
    first route of {!ranked} exported to it. *)

val feasible : t -> receiver:Asn.t -> Prefix.t -> Route.t list
(** All routes exported to [receiver] for this prefix, best first.  SDX
    policies may forward along any of them. *)

val reachable_prefixes : t -> receiver:Asn.t -> via:Asn.t -> Prefix.t list
(** Prefixes for which [via] announced a route exported to [receiver] —
    the BGP filter inserted into outbound policies forwarding to [via]
    (§4.1, "Enforcing consistency with BGP advertisements"). *)

val all_prefixes : t -> Prefix.t list
(** Every prefix with at least one candidate route, in prefix order. *)

val prefix_count : t -> int

val prefixes_of : t -> Asn.t -> Prefix.t list
(** Prefixes currently announced by the given participant. *)

val fold_best_by_route :
  t ->
  Prefix.t ->
  among:Bitset.t ->
  (Route.t option -> Bitset.t -> 'a -> 'a) ->
  'a ->
  'a
(** The prefix's best routes for the receivers in [among], a route at a
    time: each route of {!ranked} that is the {!best} of some of them,
    most preferred first, with exactly those receivers; then [None] with
    the receivers that have no route, if any.  The sets are disjoint and
    cover [among].  Bit [i] stands for the [i]-th of {!participants}.
    @raise Invalid_argument if [among] is not one bit per participant. *)

val fold_best :
  t -> receiver:Asn.t -> (Prefix.t -> Route.t -> 'a -> 'a) -> 'a -> 'a
(** Folds over [receiver]'s local RIB (its best route per prefix). *)

val lookup_best : t -> receiver:Asn.t -> Ipv4.t -> (Prefix.t * Route.t) option
(** Longest-prefix match over [receiver]'s local RIB: the most specific
    announced prefix containing the address that has a best route for
    this receiver. *)

val filter_prefixes_by_as_path :
  t -> receiver:Asn.t -> As_path_regex.t -> Prefix.t list
(** The paper's [RIB.filter('as_path', regex)]: prefixes whose best route
    for [receiver] has a matching AS path. *)

val filter_prefixes_by_community :
  t -> receiver:Asn.t -> int * int -> Prefix.t list
(** Prefixes whose best route for [receiver] carries the community —
    the other attribute-based grouping §3.2 sketches. *)
