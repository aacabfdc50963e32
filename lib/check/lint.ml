(* Source-level concurrency lint.

   Two rules, enforced over every .ml/.mli in the tree except
   [lib/sanitize] (the one module allowed to touch the raw primitives):

   - raw-primitive: no direct use of [Mutex.], [Condition.], [Atomic.],
     [Thread.] or [Domain.] — all synchronization must go through the
     [Sdx_sanitize.Sync] shim so the race detector and the model
     explorer see it.  A token prefixed by a module path (as in
     [Sync.Mutex.lock]) is fine; the lint only fires on bare uses.

   - unowned-mutable: in any file that participates in the concurrent
     runtime (detected as: it uses [Sync.] directly), every [mutable]
     record field must sit under an [sdx-owner:] comment inside its
     enclosing top-level item, documenting which thread owns the field
     or which lock guards it.  Files with no [Sync.] use are purely
     sequential from the runtime's point of view and are exempt.

   The scanner strips comments (nested [(* *)]), string literals
   (including [{|...|}] quoted strings) and character literals before
   matching, preserving line structure, so doc-comments that *mention*
   [Mutex.lock] — or this very file's pattern table — never trip it. *)

type finding = {
  lint_file : string;
  lint_line : int;  (* 1-based *)
  lint_rule : string;  (* "raw-primitive" or "unowned-mutable" *)
  lint_message : string;
}

let exempt_fragment = Filename.concat "lib" "sanitize"

let is_exempt path =
  (* normalize ./foo and backslash-free unix paths; the tree is built on
     linux so a plain substring test on the joined fragment suffices *)
  let path = if Filename.is_relative path then path else path in
  let rec has_fragment p =
    if String.length p < String.length exempt_fragment then false
    else if String.sub p 0 (String.length exempt_fragment) = exempt_fragment
    then true
    else
      match String.index_opt p '/' with
      | Some i -> has_fragment (String.sub p (i + 1) (String.length p - i - 1))
      | None -> false
  in
  has_fragment path

(* Replace comments, strings and char literals with spaces, keeping
   newlines so line numbers survive. *)
let strip (src : string) : string =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let in_comment = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if !in_comment > 0 then begin
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        blank !i;
        blank (!i + 1);
        incr in_comment;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        blank !i;
        blank (!i + 1);
        decr in_comment;
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      in_comment := 1;
      i := !i + 2
    end
    else if c = '"' then begin
      (* string literal, with escapes *)
      blank !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        (match src.[!i] with
        | '\\' when !i + 1 < n ->
            blank !i;
            blank (!i + 1);
            i := !i + 1
        | '"' ->
            blank !i;
            fin := true
        | _ -> blank !i);
        incr i
      done
    end
    else if c = '{' && !i + 1 < n
            && (src.[!i + 1] = '|'
               ||
               let rec ident j =
                 j < n
                 &&
                 match src.[j] with
                 | 'a' .. 'z' | '_' -> ident (j + 1)
                 | '|' -> true
                 | _ -> false
               in
               ident (!i + 1))
    then begin
      (* quoted string {id|...|id} *)
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '|' do incr j done;
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let closer = "|" ^ id ^ "}" in
      let cl = String.length closer in
      let k = ref (!j + 1) in
      let fin = ref false in
      while (not !fin) && !k < n do
        if !k + cl <= n && String.sub src !k cl = closer then begin
          fin := true;
          k := !k + cl
        end
        else incr k
      done;
      for p = !i to min (n - 1) (!k - 1) do blank p done;
      i := !k
    end
    else if
      c = '\''
      && !i + 1 < n
      && (src.[!i + 1] = '\\'
         || (!i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\''))
    then begin
      (* char literal: '\x..' or 'c' — NOT a type variable 'a *)
      blank !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        (match src.[!i] with
        | '\'' ->
            blank !i;
            fin := true
        | '\\' when !i + 1 < n ->
            blank !i;
            blank (!i + 1);
            i := !i + 1
        | _ -> blank !i);
        incr i
      done
    end
    else incr i
  done;
  Bytes.to_string out

let is_ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [find_token text tok] yields every offset where [tok] occurs and is
   not preceded by '.' (module path: someone else's [Mutex]) or an
   identifier character (e.g. [RMutex.]). *)
let token_occurrences text tok =
  let lt = String.length tok and n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i + lt <= n do
    if
      String.sub text !i lt = tok
      && (!i = 0
         ||
         let p = text.[!i - 1] in
         p <> '.' && not (is_ident_char p))
    then out := !i :: !out;
    incr i
  done;
  List.rev !out

let forbidden =
  [
    ("Mutex.", "use Sdx_sanitize.Sync.Mutex");
    ( "Condition.",
      "Sync has no Condition shim; join a Sdx_sanitize.Sync.Domain instead" );
    ("Atomic.", "use Sdx_sanitize.Sync.Atomic");
    ("Thread.", "domains only; use Sdx_sanitize.Sync.Domain");
    ("Domain.", "use Sdx_sanitize.Sync.Domain");
  ]

(* [Domain.] uses that are pure queries with no synchronization role. *)
let allowed_suffixes = [ "Domain.recommended_domain_count" ]

let line_of_offset src off =
  let line = ref 1 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let line_bounds src off =
  let n = String.length src in
  let s = ref off and e = ref off in
  while !s > 0 && src.[!s - 1] <> '\n' do decr s done;
  while !e < n && src.[!e] <> '\n' do incr e done;
  (!s, !e)

let owner_tag = "sdx-owner:"

let contains_sub hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let scan_source ~path (src : string) : finding list =
  let text = strip src in
  let findings = ref [] in
  let add line rule msg =
    findings :=
      { lint_file = path; lint_line = line; lint_rule = rule; lint_message = msg }
      :: !findings
  in
  (* rule 1: raw primitives *)
  List.iter
    (fun (tok, hint) ->
      List.iter
        (fun off ->
          let allowed =
            List.exists
              (fun a ->
                let la = String.length a in
                off + la <= String.length text && String.sub text off la = a)
              allowed_suffixes
          in
          if not allowed then
            let s, e = line_bounds text off in
            let frag = String.trim (String.sub text s (e - s)) in
            add (line_of_offset text off) "raw-primitive"
              (Printf.sprintf "raw %s outside lib/sanitize (%s): %s" tok hint
                 (if String.length frag > 60 then String.sub frag 0 60 ^ "..."
                  else frag)))
        (token_occurrences text tok))
    forbidden;
  (* rule 2: unowned mutable fields, in files that use Sync directly *)
  let uses_sync =
    token_occurrences text "Sync." <> []
    || token_occurrences text "Sdx_sanitize." <> []
  in
  if uses_sync && Filename.check_suffix path ".ml" then begin
    let lines = String.split_on_char '\n' text in
    let orig_lines = Array.of_list (String.split_on_char '\n' src) in
    let item_start = ref 0 in
    List.iteri
      (fun idx line ->
        (* a column-0 code character starts a new top-level item *)
        (if String.length line > 0 then
           match line.[0] with ' ' | '\t' -> () | _ -> item_start := idx);
        List.iter
          (fun off ->
            if
              (off = 0 || not (is_ident_char line.[off - 1]))
              && (off + 7 >= String.length line
                 || not (is_ident_char line.[off + 7]))
            then begin
              (* covered iff an sdx-owner: comment appears in the
                 enclosing item above this line (in the original,
                 comment-bearing source), or in the contiguous comment
                 block attached directly above the item.  A pure-comment
                 line is one that is non-blank in the original but blank
                 once stripped. *)
              let stripped = Array.of_list lines in
              let is_comment_line l =
                l >= 0
                && l < Array.length orig_lines
                && String.trim orig_lines.(l) <> ""
                && (l >= Array.length stripped
                   || String.trim stripped.(l) = "")
              in
              let doc_start = ref !item_start in
              while is_comment_line (!doc_start - 1) do decr doc_start done;
              let covered = ref false in
              for l = !doc_start to idx do
                if
                  l < Array.length orig_lines
                  && contains_sub orig_lines.(l) owner_tag
                then covered := true
              done;
              if not !covered then
                add (idx + 1) "unowned-mutable"
                  "mutable field in a Sync-using module without an \
                   sdx-owner: annotation in its enclosing item"
            end)
          (token_occurrences line "mutable"))
      lines
  end;
  List.rev !findings

let scan_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  if is_exempt path then [] else scan_source ~path src

let rec walk acc path =
  let base = Filename.basename path in
  if base = "_build" || base = ".git" || base = "_opam" then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> walk acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let scan_dirs dirs =
  let files =
    List.sort String.compare
      (List.fold_left (fun acc d -> walk acc d) [] dirs)
  in
  List.concat_map scan_file files

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.lint_file f.lint_line f.lint_rule
    f.lint_message
