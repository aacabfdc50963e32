(** The destination-MAC blocks the SDX mints its own addresses from:
    trunk tags, whose first octet is {!tag_octet_even} or
    {!tag_octet_odd} (one per version parity), and the VMACs {!Vnh}
    draws from {!vmac_base} plus a pool index below 2{^32}.
    {!Config.make} rejects a participant port MAC in either block. *)

open Sdx_net

val tag_octet_even : int
(** [0x06] *)

val tag_octet_odd : int
(** [0x0E] *)

val vmac_base : int
(** [02:00:00:00:00:00], the VMAC of pool index 0 *)

val reserved : Mac.t -> string option
(** The block a MAC lies in, described for an error message; [None]
    when a participant port may use it. *)
