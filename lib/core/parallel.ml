let default_domains () =
  match Option.bind (Sys.getenv_opt "SDX_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> Sdx_sanitize.Sync.Domain.recommended_count ()
