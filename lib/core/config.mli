(** Static SDX configuration: the set of participants, the mapping of
    their border-router ports onto the fabric switch's port numbers, and
    the route server instance. *)

open Sdx_net
open Sdx_bgp

type t

val make :
  ?export:(advertiser:Asn.t -> receiver:Asn.t -> bool) ->
  Participant.t list ->
  t
(** Builds the configuration and an empty route server with the given
    export-policy matrix.
    @raise Invalid_argument on duplicate ASNs, invalid policies,
    duplicate port addresses, or a port MAC in a block the SDX mints
    addresses from ({!Mac_space.reserved}), naming the participant and
    the MAC. *)

val participants : t -> Participant.t list

val server : t -> Route_server.t

val with_policies : t -> (Participant.t -> Ppolicy.t * Ppolicy.t) -> t
(** A configuration with the same participants, ports, and — crucially —
    the same live route server, but each participant's
    (inbound, outbound) policies replaced by the function's result.
    This is how a policy change is applied without disturbing BGP state:
    build the new configuration, then recompile (§4.3 treats policy
    changes as full recompilations).
    @raise Invalid_argument if a new policy fails validation. *)

val participant : t -> Asn.t -> Participant.t
(** @raise Not_found for an unknown ASN. *)

val participant_opt : t -> Asn.t -> Participant.t option

val switch_port : t -> Asn.t -> int -> int
(** [switch_port t asn index] is the fabric switch port number of the
    participant's [index]-th physical port.  Switch ports are numbered
    from 1 in participant declaration order. *)

val switch_ports_of : t -> Asn.t -> int list
(** All fabric ports of one participant. *)

val owner_of_port : t -> int -> Participant.t * Participant.port
(** @raise Not_found for a port number not assigned to any participant. *)

val port_of_next_hop : t -> Ipv4.t -> (Participant.t * Participant.port * int) option
(** Resolves a BGP next-hop interface address to its participant, port
    record, and fabric port number. *)

val port_count : t -> int

val announce : t -> peer:Asn.t -> port:int -> ?as_path:Asn.t list -> Prefix.t -> Route_server.change
(** Convenience: the participant announces [prefix] from its [port]-th
    interface to the route server.  [as_path] defaults to the
    participant's own ASN. *)

val preload : t -> peer:Asn.t -> port:int -> ?as_path:Asn.t list -> Prefix.t -> unit
(** Like {!announce} but via {!Route_server.load}: no best-route change
    diffing, for bulk initial table loads before anything is compiled. *)

val withdraw : t -> peer:Asn.t -> Prefix.t -> Route_server.change
