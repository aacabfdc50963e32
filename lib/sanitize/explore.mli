(** Deterministic interleaving explorer over {!Sync}'s Model mode.

    {!run} executes a scenario under a cooperative scheduler that
    enumerates interleavings of the scenario's visible operations
    (lock/unlock, atomic ops, tracked reads/writes, spawn/join) by
    depth-first stateless re-execution,
    pruned by sleep sets ("DPOR-lite").  Exploration is exhaustive
    whenever [truncated] comes back [false].

    Scenarios must be deterministic apart from scheduling and must
    create every structure under test inside the scenario body, so the
    structure is tracked and its operations become yield points.
    Structures created while the detector was off are passthrough even
    in Model mode and execute atomically within a scheduling step. *)

type result = {
  executions : int;  (** complete interleavings explored *)
  pruned : int;  (** executions cut short by the sleep-set reduction *)
  max_depth : int;  (** most choice points along one schedule *)
  deadlocks : int;
  deadlock_trace : string list;  (** first deadlock's interleaving *)
  races : Sync.report list;
      (** deduplicated by (kind, location) across interleavings; each
          report carries the interleaving that produced it *)
  errors : string list;  (** exceptions escaping scenario threads *)
  truncated : bool;  (** hit [max_execs] or [max_steps]: NOT exhaustive *)
  first_trace : string list;  (** the first execution's interleaving *)
}

val ok : result -> bool
(** No deadlocks, races or errors, and the exploration was exhaustive. *)

val pp_summary : Format.formatter -> result -> unit

val run :
  ?seed:int ->
  ?dpor:bool ->
  ?max_execs:int ->
  ?max_steps:int ->
  (unit -> unit) ->
  result
(** [run scenario] explores [scenario]'s interleavings and restores the
    previous {!Sync.mode} when done (clearing the global race buffer).

    [seed] permutes the candidate order at each choice point — it
    changes the visit order, never the set of explored interleavings.
    [dpor:false] disables sleep-set pruning (full enumeration), for
    cross-checking the reduction.  [max_execs] (default 20000) and
    [max_steps] (default 5000, per execution) bound the search; hitting
    either sets [truncated]. *)
