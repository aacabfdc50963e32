(** The SDX's BGP front door: one wire-level session per participant.

    Participants' border routers speak ordinary BGP; the gateway decodes
    their bytes, pushes the updates through the runtime's fast path, and
    re-advertises the (VNH-rewritten) results to every other established
    session — the full §5.1 loop from "BGP updates arrive" to "the route
    server marshals the corresponding BGP updates and sends them to the
    appropriate participant ASes", over real message encoding. *)

open Sdx_net
open Sdx_bgp

type t

val create : ?rs_asn:Asn.t -> ?rs_id:Ipv4.t -> Runtime.t -> t
(** One server-side session endpoint per participant.  [rs_asn] defaults
    to 65535, [rs_id] to 172.31.255.1 (identities of the route server
    itself in its OPENs). *)

val runtime : t -> Runtime.t

val session : t -> Asn.t -> Peer.t
(** The server-side endpoint for one participant.
    @raise Not_found for an unknown ASN. *)

val connect_all : t -> unit
(** Open all sessions (queues the route server's OPENs). *)

val deliver : t -> from:Asn.t -> bytes -> (Runtime.update_stats list, string) result
(** Feed bytes received from a participant's router.  Every decoded
    update runs through {!Runtime.handle_update}; updates that changed a
    best route are re-advertised to every other established session:
    each receiver gets one message, its announcement for the prefix or a
    withdrawal.  The re-advertisement works a route at a time: the route
    server hands out each distinct best route with its receivers
    ({!Route_server.fold_best_by_route}), whose next hop is rewritten
    ({!Runtime.announced}) and message encoded once, and the one
    encoding is queued on each of its receivers.

    A session whose FSM requested a route flush (loss after
    establishment) has its routes withdrawn from the server
    automatically, as one {!Runtime.handle_burst}; each prefix whose
    best route moved is then re-advertised once, from the final
    state. *)

val outbox : t -> Asn.t -> bytes list
(** Drain the bytes to transmit toward one participant.  The buffers
    are the caller's own: no two outboxes share bytes. *)

val advertise_table : t -> Asn.t -> int
(** Queue the participant's full current table (one UPDATE per prefix,
    VNH-rewritten) on its session — the initial table transfer after
    establishment.  Returns the number of routes sent. *)

val established : t -> Asn.t list
(** Participants whose sessions are currently established. *)
