(** How many domains a data-plane reader sweep should use.  The
    controller itself runs on one domain; [bench dataplane] and
    [bench fabric] spawn their reader domains directly (DESIGN.md §13). *)

val default_domains : unit -> int
(** [SDX_DOMAINS] if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
