open Sdx_net

type rule = { pattern : Pattern.t; action : Mods.t list }
type t = rule list

let canon_action atoms = List.sort_uniq Mods.compare atoms
let rule pattern action = { pattern; action = canon_action action }
let drop_all = [ rule Pattern.all [] ]
let id_all = [ rule Pattern.all [ Mods.identity ] ]

(* Cross products routinely emit the same pattern several times; only the
   first occurrence can ever match, so later ones are dropped via a
   hashtable — an O(1) shadow check that keeps composition linear in the
   output size.  Superset shadowing is only reported, by [shadows]. *)
let dedupe_patterns rules =
  let seen = Pattern.Tbl.create 64 in
  List.filter
    (fun r ->
      if Pattern.Tbl.mem seen r.pattern then false
      else begin
        Pattern.Tbl.add seen r.pattern ();
        true
      end)
    rules

let par c1 c2 =
  let cross =
    List.concat_map
      (fun r1 ->
        List.filter_map
          (fun r2 ->
            match Pattern.inter r1.pattern r2.pattern with
            | Some p -> Some (rule p (r1.action @ r2.action))
            | None -> None)
          c2)
      c1
  in
  dedupe_patterns cross

(* An atom that writes value [v] into an exact-match field can only pull
   back rules whose constraint on that field is absent or equal to [v]
   ([pull_exact] raises Empty otherwise).  [Seq_index] indexes the
   right-hand classifier of a [seq] once, per exact field: for each atom
   it picks the field whose candidate set (matching bucket plus
   unconstrained rules) is smallest, and only those rules are pulled
   back.  Prefix fields are containment-, not equality-, constrained, so
   they are left unindexed.  Buckets carry original rule positions and
   are merged on position, preserving first-match order. *)
module Seq_index = struct
  type entry = { pos : int; er : rule }

  type field = {
    get_mod : Mods.t -> int option;
    by_value : (int, entry list) Hashtbl.t;  (* ascending [pos] *)
    wild : entry list;  (* rules without this field, ascending [pos] *)
    wild_count : int;
  }

  type t = { all : rule list; fields : field list }

  let specs :
      ((Pattern.t -> int option) * (Mods.t -> int option)) list =
    [
      ((fun p -> p.Pattern.port), fun m -> m.Mods.port);
      ( (fun p -> Option.map Mac.to_int p.Pattern.src_mac),
        fun m -> Option.map Mac.to_int m.Mods.src_mac );
      ( (fun p -> Option.map Mac.to_int p.Pattern.dst_mac),
        fun m -> Option.map Mac.to_int m.Mods.dst_mac );
      ((fun p -> p.Pattern.eth_type), fun m -> m.Mods.eth_type);
      ((fun p -> p.Pattern.proto), fun m -> m.Mods.proto);
      ((fun p -> p.Pattern.src_port), fun m -> m.Mods.src_port);
      ((fun p -> p.Pattern.dst_port), fun m -> m.Mods.dst_port);
    ]

  let build_field c2 (get_pat, get_mod) =
    let by_value = Hashtbl.create 16 in
    let wild = ref [] in
    let wild_count = ref 0 in
    let constrained = ref 0 in
    List.iteri
      (fun pos r ->
        let e = { pos; er = r } in
        match get_pat r.pattern with
        | None ->
            incr wild_count;
            wild := e :: !wild
        | Some v ->
            incr constrained;
            Hashtbl.replace by_value v
              (e :: Option.value (Hashtbl.find_opt by_value v) ~default:[]))
      c2;
    (* A field nothing constrains can never narrow the scan. *)
    if !constrained = 0 then None
    else begin
      let sorted = Hashtbl.create (Hashtbl.length by_value) in
      Hashtbl.iter (fun v es -> Hashtbl.replace sorted v (List.rev es)) by_value;
      Some
        { get_mod; by_value = sorted; wild = List.rev !wild;
          wild_count = !wild_count }
    end

  let create c2 = { all = c2; fields = List.filter_map (build_field c2) specs }

  let rec merge a b =
    match (a, b) with
    | [], es | es, [] -> es
    | x :: xs, y :: ys ->
        if x.pos < y.pos then x :: merge xs (y :: ys)
        else y :: merge (x :: xs) ys

  let candidates t (a : Mods.t) =
    let best =
      List.fold_left
        (fun best f ->
          match f.get_mod a with
          | None -> best
          | Some v ->
              let bucket =
                Option.value (Hashtbl.find_opt f.by_value v) ~default:[]
              in
              let n = List.length bucket + f.wild_count in
              (match best with
              | Some (n', _, _) when n' <= n -> best
              | _ -> Some (n, bucket, f.wild)))
        None t.fields
    in
    match best with
    | None -> t.all
    | Some (_, bucket, wild) -> List.map (fun e -> e.er) (merge bucket wild)
end

(* Sequential composition of one action atom with the second classifier:
   pull each candidate pattern of [c2] back through the modification. *)
let seq_atom idx (a : Mods.t) =
  List.filter_map
    (fun r2 ->
      match Pattern.pull_back a r2.pattern with
      | Some p -> Some (rule p (List.map (fun b -> Mods.then_ a b) r2.action))
      | None -> None)
    (Seq_index.candidates idx a)

let restrict p c =
  let confined =
    List.filter_map
      (fun r ->
        match Pattern.inter p r.pattern with
        | Some q -> Some { r with pattern = q }
        | None -> None)
      c
  in
  (* Total again: everything outside [p] is dropped. *)
  dedupe_patterns (confined @ drop_all)

let seq c1 c2 =
  let idx = Seq_index.create c2 in
  let block r1 =
    match r1.action with
    | [] -> [ r1 ]
    | atoms ->
        let subs = List.map (fun a -> seq_atom idx a) atoms in
        let combined =
          match subs with
          | [] -> drop_all
          | first :: rest -> List.fold_left par first rest
        in
        List.filter_map
          (fun r ->
            match Pattern.inter r1.pattern r.pattern with
            | Some p -> Some { r with pattern = p }
            | None -> None)
          combined
  in
  dedupe_patterns (List.concat_map block c1)

(* Predicates compile to classifiers whose action is pass ([id]) or drop
   ([]); boolean connectives are cross products over those. *)
let bool_action b = if b then [ Mods.identity ] else []
let is_pass action = action <> []

let rec compile_pred (pred : Pred.t) : t =
  match pred with
  | True -> id_all
  | False -> drop_all
  | Test p -> dedupe_patterns [ rule p [ Mods.identity ]; rule Pattern.all [] ]
  | And (a, b) -> cross_bool (compile_pred a) (compile_pred b) ( && )
  | Or (a, b) -> cross_bool (compile_pred a) (compile_pred b) ( || )
  | Not a ->
      List.map
        (fun r -> { r with action = bool_action (not (is_pass r.action)) })
        (compile_pred a)

and cross_bool c1 c2 f =
  let cross =
    List.concat_map
      (fun r1 ->
        List.filter_map
          (fun r2 ->
            match Pattern.inter r1.pattern r2.pattern with
            | Some p ->
                Some (rule p (bool_action (f (is_pass r1.action) (is_pass r2.action))))
            | None -> None)
          c2)
      c1
  in
  dedupe_patterns cross

let rec compile (pol : Policy.t) : t =
  match pol with
  | Filter pred -> compile_pred pred
  | Mod m -> [ rule Pattern.all [ m ] ]
  | Union (p, q) -> par (compile p) (compile q)
  | Seq (p, q) -> seq (compile p) (compile q)
  | If (c, p, q) ->
      let cond = compile_pred c in
      let then_ = seq cond (compile p) in
      let else_ = seq (compile_pred (Pred.not_ c)) (compile q) in
      par then_ else_

let first_match c pkt = List.find_opt (fun r -> Pattern.matches r.pattern pkt) c

let eval c pkt =
  match first_match c pkt with
  | None -> []
  | Some r ->
      Packet.Set.elements
        (Packet.Set.of_list (List.map (fun m -> Mods.apply m pkt) r.action))

(* Shadow detection: a rule is dead when an earlier rule's pattern is a
   superset of its own.  Any superset of pattern [p] must constrain a
   subset of [p]'s fields, with equal values on exact fields and
   containing prefixes on IP fields — so earlier patterns are bucketed by
   (constrained-prefix-fields mask, pattern with prefixes erased), and
   for each candidate we probe only the buckets of its generalizations
   (each constrained field kept or dropped) instead of scanning every
   kept rule.  2^k probes for k constrained fields (k <= 9, typically
   2-3) replace the O(n) scan per rule. *)
module Shadow_tbl = Hashtbl.Make (struct
  type t = int * Pattern.t

  let equal (a, p) (b, q) = Int.equal a b && Pattern.equal p q
  let hash (a, p) = (Pattern.hash p * 31) + a
end)

let erase_prefixes (p : Pattern.t) = { p with src_ip = None; dst_ip = None }

let prefix_bits (p : Pattern.t) =
  (if Option.is_some p.src_ip then 1 else 0)
  lor if Option.is_some p.dst_ip then 2 else 0

(* One clearing function per constrained exact field of [p]. *)
let exact_clearers (p : Pattern.t) =
  let add clear field acc = if Option.is_some field then clear :: acc else acc in
  add (fun (q : Pattern.t) -> { q with port = None }) p.port
  @@ add (fun (q : Pattern.t) -> { q with src_mac = None }) p.src_mac
  @@ add (fun (q : Pattern.t) -> { q with dst_mac = None }) p.dst_mac
  @@ add (fun (q : Pattern.t) -> { q with eth_type = None }) p.eth_type
  @@ add (fun (q : Pattern.t) -> { q with proto = None }) p.proto
  @@ add (fun (q : Pattern.t) -> { q with src_port = None }) p.src_port
  @@ add (fun (q : Pattern.t) -> { q with dst_port = None }) p.dst_port
  @@ []

(* Report (without removing) which rules an earlier superset rule
   shadows: [(i, j)] means rule [i] can never match because rule [j < i]
   matches every packet rule [i] does.  Every generalization of the
   rule's pattern is probed in the buckets of earlier patterns, which
   carry their rule indices. *)
let shadows c =
  let tbl = Shadow_tbl.create 256 in
  let shadowed_by p =
    let base = erase_prefixes p in
    let clears = Array.of_list (exact_clearers p) in
    let k = Array.length clears in
    let pb = prefix_bits p in
    let found = ref None in
    let emask = ref 0 in
    let continue = ref true in
    while !continue do
      let e = ref base in
      for i = 0 to k - 1 do
        if !emask land (1 lsl i) <> 0 then e := clears.(i) !e
      done;
      let pmask = ref pb in
      let more_pmasks = ref true in
      while !more_pmasks && !found = None do
        (match Shadow_tbl.find_opt tbl (!pmask, !e) with
        | Some earlier ->
            List.iter
              (fun (q, j) ->
                let better =
                  match !found with None -> true | Some j' -> j < j'
                in
                if better && Pattern.subset p q then found := Some j)
              !earlier
        | None -> ());
        if !pmask = 0 then more_pmasks := false
        else pmask := (!pmask - 1) land pb
      done;
      if !found <> None || !emask = (1 lsl k) - 1 then continue := false
      else incr emask
    done;
    !found
  in
  let insert p i =
    let key = (prefix_bits p, erase_prefixes p) in
    match Shadow_tbl.find_opt tbl key with
    | Some earlier -> earlier := (p, i) :: !earlier
    | None -> Shadow_tbl.add tbl key (ref [ (p, i) ])
  in
  let _, pairs =
    List.fold_left
      (fun (i, acc) r ->
        let acc =
          match shadowed_by r.pattern with Some j -> (i, j) :: acc | None -> acc
        in
        insert r.pattern i;
        (i + 1, acc))
      (0, []) c
  in
  List.rev pairs

let rule_count = List.length

let equivalent_on c1 c2 pkts =
  List.for_all (fun pkt -> eval c1 pkt = eval c2 pkt) pkts

let pp_rule fmt r =
  Format.fprintf fmt "@[<h>%a -> [%a]@]" Pattern.pp r.pattern
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Mods.pp)
    r.action

let pp fmt c =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_rule)
    c
