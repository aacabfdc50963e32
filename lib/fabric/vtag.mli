(** Version tags for trunk frames.

    The two-phase consistent-update protocol needs every frame crossing
    a trunk to carry the version of the transit rules its destination
    had when the frame was stamped, so old and new copies of a
    destination's transit rules can coexist during a commit without
    ever mixing on one packet's path.  A tag is a destination MAC in a
    reserved space: first octet [0x06] (even versions) or [0x0E] (odd),
    low 40 bits an interned index of the original destination MAC.  The
    interner is stable for the lifetime of a fabric, so re-stamping the
    same address at every commit yields the same tag modulo the parity
    octet — which is exactly the bit a destination's version flip
    toggles. *)

open Sdx_net

type t
(** The MAC interner backing one fabric's tag space. *)

val create : unit -> t

val stamp : t -> version:int -> Mac.t -> Mac.t
(** The tag for [mac] under [version] (only its parity matters).
    @raise Invalid_argument if [mac] already lies in the tag space. *)

val strip : t -> Mac.t -> Mac.t option
(** The original address a tag was minted from; [None] for untagged
    MACs or tags this interner never issued. *)

val is_tagged : Mac.t -> bool
(** Whether the address lies in the reserved tag space at all. *)

val parity : Mac.t -> int option
(** The version parity a tag carries; [None] for untagged MACs. *)

val index : Mac.t -> int
(** The interned index a tag carries: equal for both parities of one
    original address, distinct across addresses.  Meaningless for
    untagged MACs. *)

val interned : t -> int
(** Distinct original addresses interned so far. *)
