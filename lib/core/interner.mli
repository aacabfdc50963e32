(** Canonicalization table for {!Sdx_bgp.Bitset} vectors: interning two
    equal vectors yields the physically same stamped value, so
    downstream grouping can key on a dense id instead of re-hashing
    vectors.  Intern order assigns ids densely from 0, which makes
    interning deterministic; {!Compile} re-sorts classes by their
    smallest member, so id assignment never leaks into output. *)

type bitset := Sdx_bgp.Bitset.t

type t

type interned = private { id : int; vector : bitset Lazy.t; ids : int list }
(** [ids] is the ascending set-bit list the class was interned under,
    shared so callers never re-derive it.  [vector] is the packed
    form, materialized on first force: the ids entry points never
    build it, so a grouping pass that only consumes [id]/[ids] pays
    O(popcount) per class, not O(width).  Forcing a vector interned
    through {!intern_sorted}/{!intern_rev_sorted} with out-of-range
    ids raises at force time, not intern time. *)

val create : ?expected:int -> unit -> t

val intern : t -> bitset -> interned
(** [intern tbl v] returns the canonical interned value equal to
    [v], creating one (with a private copy of [v], so the caller may
    keep mutating its buffer) on first sight. *)

val intern_sorted : t -> width:int -> int list -> interned
(** [intern_sorted tbl ~width ids] interns the vector whose ascending
    set-bit list is [ids] without the caller materializing it: the
    probe costs O(length ids) rather than O(width), and the packed
    vector is built only on first sight.  [ids] must be strictly
    ascending and in range; [width] must match the table's other
    entries for equal sets to collapse. *)

val intern_rev_sorted : t -> width:int -> int list -> interned
(** [intern_rev_sorted tbl ~width rev_ids] is {!intern_sorted} for a
    strictly-descending set-bit list — the natural shape of a list
    consed while scanning ids upward, so a caller that accumulates
    vectors band-by-band never sorts or reverses on the hit path.
    The returned {!interned}'s [ids] field is ascending as always. *)

val find_opt : t -> bitset -> interned option

val cardinal : t -> int
