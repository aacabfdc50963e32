(** Seeded-race mutation scenarios and model-checking drivers for the
    sdx_race sanitizer ([sdxd race] and the CI race job run these).

    {!seeded} holds four miniature synchronization protocols, each with
    a [bug] switch removing exactly one happens-before edge; the
    detector must flag every buggy variant and stay silent on every
    clean one.  The [model_*] scenarios drive the real table's RCU
    snapshots under the {!Sdx_sanitize.Explore} interleaving explorer,
    exhaustively at unit-test scale. *)

module Sync := Sdx_sanitize.Sync

type scenario = {
  sc_name : string;
  sc_bug : string;  (** what the buggy variant breaks *)
  sc_kind : string;  (** substring expected in the buggy report's kind *)
  sc_run : bug:bool -> unit -> unit;
}

val seeded : scenario list

val run_record : (unit -> unit) -> Sync.report list
(** Run under Record mode with real domains; returns (and clears) the
    detector's reports, restoring the previous mode. *)

val model_rcu_snapshot : unit -> unit
(** RCU snapshot vs. concurrent mutation on a real [Openflow.Table]:
    race-free in every interleaving. *)

val model_rcu_misuse : unit -> unit
(** A reader building snapshots concurrently with the writer: the
    single-writer Owner assertion must fire in some interleaving. *)

(** One pass/fail entry of the suite. *)
type item = {
  item_name : string;
  item_ok : bool;
  item_detail : string;
  item_reports : Sync.report list;
}

val run_all : unit -> item list
(** Seeded clean/buggy pairs under Record mode, and the exhaustive
    explorer models (including the seeded buggy variants re-checked
    under the explorer). *)

val all_ok : item list -> bool
val items_json : item list -> string
