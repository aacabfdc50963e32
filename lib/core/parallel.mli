(** A fixed-size domain pool for fanning independent computations across
    OCaml 5 domains (stdlib [Domain]/[Mutex]/[Condition] only).

    The data-plane drivers use it to look packet vectors up across
    worker domains: tasks must not mutate shared state except through
    their own synchronization (see DESIGN.md §13). *)

type t

val create : domains:int -> t
(** A pool that runs tasks on [max 1 domains] domains.  [domains - 1]
    worker domains are spawned; the caller of {!map} is the remaining
    one. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], computed concurrently.  Results
    are returned in input order regardless of completion order.  If any
    [f x] raises, the first (in input order) such exception is re-raised
    after the whole batch settles.  [f] runs on arbitrary domains — it
    must only touch shared mutable state under its own locks. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!map} over arrays, sharded into contiguous chunks: the natural
    entry point for data-plane batches (e.g. a packet vector split
    across domains).  Same ordering and exception contract as {!map}. *)

val shutdown : t -> unit
(** Joins the worker domains.  The pool must be idle. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exceptions). *)

val default_domains : unit -> int
(** [SDX_DOMAINS] if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
