(** RFC 4271 BGP message encoding and decoding — the bytes a route
    server exchanges with participant border routers over their BGP
    sessions.  Covers the attribute set this SDX uses: ORIGIN, AS_PATH,
    NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF, and RFC 1997 COMMUNITIES.

    Two-byte AS number encoding is used; AS numbers above 65535 are
    substituted with AS_TRANS (23456) as RFC 6793 prescribes for
    non-4-octet-capable sessions. *)

open Sdx_net

type open_msg = { asn : Asn.t; hold_time : int; bgp_id : Ipv4.t }

type attrs = {
  origin : Route.origin;
  as_path : Asn.t list;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  communities : (int * int) list;
}

type update_msg = {
  withdrawn : Prefix.t list;
  attrs : attrs option;  (** [None] iff the message announces nothing *)
  nlri : Prefix.t list;
}

type t =
  | Open of open_msg
  | Update of update_msg
  | Keepalive
  | Notification of { code : int; subcode : int }

val as_trans : Asn.t
(** AS 23456. *)

val encode : t -> bytes
(** The full message, marker and length included. *)

type error = { code : int; subcode : int; reason : string }
(** Why a message failed to decode: the RFC 4271 NOTIFICATION error code
    and subcode the receiver sends before closing (1/1 bad marker, 1/2
    bad message length, 1/3 unknown type; 2/1 unsupported version; 3/1
    malformed attribute list, covering a truncated UPDATE, 3/3 NLRI
    without NEXT_HOP, 3/5 attribute length, 3/6 invalid ORIGIN, 3/10
    invalid network field, 3/11 malformed AS_PATH), and a text. *)

val decode : bytes -> (t, error) result
(** Decodes exactly one message; validates the marker, declared length,
    and attribute structure. *)

val decode_sub : bytes -> pos:int -> len:int -> (t, error) result
(** {!decode} of the [len] bytes at [pos], read in place.
    @raise Invalid_argument if the range is outside the buffer. *)

val of_update : Update.t -> t
(** The UPDATE message carrying one route-server update. *)

val to_updates : peer:Asn.t -> t -> Update.t list
(** The route-server updates an incoming message from [peer] implies
    (empty for OPEN/KEEPALIVE/NOTIFICATION). *)

val pp : Format.formatter -> t -> unit
