(** Packed fixed-width bitsets.

    A {!t} is a bit vector backed by an [int array] ([Sys.int_size] bits
    per cell).  Two users share it:
    - the grouping pipeline in [Compile] builds one vector per prefix
      (bit [i] set iff output spec [i], or in the high bit band origin
      set [i], covers the prefix) and groups prefixes by interning equal
      vectors ([Sdx_core.Interner]);
    - the {!Route_server} keeps one vector of receivers per advertiser
      (its export row) and settles each update a receiver set at a time.

    Vectors are mutable during construction ({!set}, {!clear}) and
    treated as immutable once shared.  The set operations return fresh
    vectors and never touch their arguments. *)

type t

val create : int -> t
(** [create width] is the all-zeros vector over [width] bits. *)

val width : t -> int

val set : t -> int -> unit
(** [set v i] sets bit [i].  Raises [Invalid_argument] when [i] is
    outside [0 .. width v - 1]. *)

val mem : t -> int -> bool

val clear : t -> int -> unit
(** [clear v i] unsets bit [i] — O(1), so resetting a reused scratch
    buffer by its known set-bit list is proportional to those bits, not
    to the width.  Raises [Invalid_argument] outside the range. *)

val equal : t -> t -> bool
(** Structural equality over the full width (widths must agree for two
    vectors ever to be equal). *)

val compare : t -> t -> int
(** Total order consistent with {!equal}: shorter widths first, then
    lexicographic on the packed cells (cell 0 holds bits 0..62, so the
    order is deterministic but not numeric). *)

val hash : t -> int
(** Mixing hash over the packed cells; equal vectors hash equal. *)

val copy : t -> t

val cardinal : t -> int
(** Number of set bits. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f v init] folds [f] over the set bit indices in increasing
    order. *)

val iter : (int -> unit) -> t -> unit
(** Ascending-index iteration over set bits. *)

val to_list : t -> int list
(** Set bit indices, ascending. *)

val of_list : width:int -> int list -> t
(** [of_list ~width ids] is the [width]-bit vector with exactly [ids]
    set.  Raises [Invalid_argument] when an id is out of range. *)

val is_empty : t -> bool

val inter : t -> t -> t
(** [inter a b] is the fresh vector of bits set in both.  Raises
    [Invalid_argument] when the widths differ, as do {!union} and
    {!diff}. *)

val union : t -> t -> t
(** Bits set in either. *)

val diff : t -> t -> t
(** [diff a b] is the bits of [a] not set in [b]. *)
