open Sdx_net

(* ------------------------------------------------------------------ *)
(* Keys: one field test.                                               *)

type key =
  | Port of int
  | Src_mac of Mac.t
  | Dst_mac of Mac.t
  | Eth_type of int
  | Src_ip of Prefix.t
  | Dst_ip of Prefix.t
  | Proto of int
  | Src_port of int
  | Dst_port of int

let field_index = function
  | Port _ -> 0
  | Src_mac _ -> 1
  | Dst_mac _ -> 2
  | Eth_type _ -> 3
  | Src_ip _ -> 4
  | Dst_ip _ -> 5
  | Proto _ -> 6
  | Src_port _ -> 7
  | Dst_port _ -> 8

(* Longer prefixes order before shorter ones: a path's positive prefix
   tests then go specific-to-coarse, so by the time a coarse test is
   reached a more specific positive test (which would decide it) has
   already been resolved by [assume]. *)
let prefix_compare p q =
  let c = Int.compare (Prefix.length q) (Prefix.length p) in
  if c <> 0 then c else Prefix.compare p q

let key_compare a b =
  let c = Int.compare (field_index a) (field_index b) in
  if c <> 0 then c
  else
    match (a, b) with
    | Port x, Port y
    | Eth_type x, Eth_type y
    | Proto x, Proto y
    | Src_port x, Src_port y
    | Dst_port x, Dst_port y -> Int.compare x y
    | Src_mac x, Src_mac y | Dst_mac x, Dst_mac y -> Mac.compare x y
    | Src_ip x, Src_ip y | Dst_ip x, Dst_ip y -> prefix_compare x y
    | _ -> assert false

let key_equal a b = key_compare a b = 0

let key_hash k =
  let mix tag v = (tag * 0x01000193) lxor (v land max_int) in
  match k with
  | Port v -> mix 1 v
  | Src_mac m -> mix 2 (Mac.to_int m)
  | Dst_mac m -> mix 3 (Mac.to_int m)
  | Eth_type v -> mix 4 v
  | Src_ip p -> mix 5 (Prefix.hash p)
  | Dst_ip p -> mix 6 (Prefix.hash p)
  | Proto v -> mix 7 v
  | Src_port v -> mix 8 v
  | Dst_port v -> mix 9 v

(* [a] true forces [b] true — both on the same field. *)
let implies a b =
  match (a, b) with
  | Port x, Port y
  | Eth_type x, Eth_type y
  | Proto x, Proto y
  | Src_port x, Src_port y
  | Dst_port x, Dst_port y -> x = y
  | Src_mac x, Src_mac y | Dst_mac x, Dst_mac y -> Mac.equal x y
  | Src_ip x, Src_ip y | Dst_ip x, Dst_ip y -> Prefix.subset x y
  | _ -> false

(* [a] true forces [b] false — both on the same field. *)
let excludes a b =
  match (a, b) with
  | Port x, Port y
  | Eth_type x, Eth_type y
  | Proto x, Proto y
  | Src_port x, Src_port y
  | Dst_port x, Dst_port y -> x <> y
  | Src_mac x, Src_mac y | Dst_mac x, Dst_mac y -> not (Mac.equal x y)
  | Src_ip x, Src_ip y | Dst_ip x, Dst_ip y -> not (Prefix.overlaps x y)
  | _ -> false

(* [a] false forces [b] false — both on the same field. *)
let neg_implies_neg a b =
  match (a, b) with
  | Port x, Port y
  | Eth_type x, Eth_type y
  | Proto x, Proto y
  | Src_port x, Src_port y
  | Dst_port x, Dst_port y -> x = y
  | Src_mac x, Src_mac y | Dst_mac x, Dst_mac y -> Mac.equal x y
  | Src_ip x, Src_ip y | Dst_ip x, Dst_ip y -> Prefix.subset y x
  | _ -> false

let key_matches k (p : Packet.t) =
  match k with
  | Port v -> p.port = v
  | Src_mac m -> Mac.equal p.src_mac m
  | Dst_mac m -> Mac.equal p.dst_mac m
  | Eth_type v -> p.eth_type = v
  | Src_ip pre -> Prefix.mem p.src_ip pre
  | Dst_ip pre -> Prefix.mem p.dst_ip pre
  | Proto v -> p.proto = v
  | Src_port v -> p.src_port = v
  | Dst_port v -> p.dst_port = v

(* Whether a modification fixes the outcome of a test: [Some b] when the
   modified field makes [k] evaluate to [b] regardless of the incoming
   packet; [None] when the field is untouched. *)
let mod_determines (m : Mods.t) k =
  match k with
  | Port v -> Option.map (Int.equal v) m.Mods.port
  | Src_mac x -> Option.map (Mac.equal x) m.src_mac
  | Dst_mac x -> Option.map (Mac.equal x) m.dst_mac
  | Eth_type v -> Option.map (Int.equal v) m.eth_type
  | Src_ip pre -> Option.map (fun ip -> Prefix.mem ip pre) m.src_ip
  | Dst_ip pre -> Option.map (fun ip -> Prefix.mem ip pre) m.dst_ip
  | Proto v -> Option.map (Int.equal v) m.proto
  | Src_port v -> Option.map (Int.equal v) m.src_port
  | Dst_port v -> Option.map (Int.equal v) m.dst_port

(* A pattern's tests in ascending key order. *)
let keys_of_pattern (p : Pattern.t) =
  let add f v acc = match v with None -> acc | Some x -> f x :: acc in
  []
  |> add (fun v -> Dst_port v) p.dst_port
  |> add (fun v -> Src_port v) p.src_port
  |> add (fun v -> Proto v) p.proto
  |> add (fun v -> Dst_ip v) p.dst_ip
  |> add (fun v -> Src_ip v) p.src_ip
  |> add (fun v -> Eth_type v) p.eth_type
  |> add (fun v -> Dst_mac v) p.dst_mac
  |> add (fun v -> Src_mac v) p.src_mac
  |> add (fun v -> Port v) p.port

(* Conjoin one positive test onto a pattern; [None] if unsatisfiable. *)
let refine_pattern (pat : Pattern.t) k =
  let exact eq cur v set =
    match cur with
    | None -> Some (set (Some v))
    | Some w -> if eq w v then Some pat else None
  in
  let prefix cur v set =
    match cur with
    | None -> Some (set (Some v))
    | Some w -> (
        match Prefix.inter w v with
        | Some r -> Some (set (Some r))
        | None -> None)
  in
  match k with
  | Port v -> exact Int.equal pat.port v (fun x -> { pat with port = x })
  | Src_mac v -> exact Mac.equal pat.src_mac v (fun x -> { pat with src_mac = x })
  | Dst_mac v -> exact Mac.equal pat.dst_mac v (fun x -> { pat with dst_mac = x })
  | Eth_type v ->
      exact Int.equal pat.eth_type v (fun x -> { pat with eth_type = x })
  | Src_ip v -> prefix pat.src_ip v (fun x -> { pat with src_ip = x })
  | Dst_ip v -> prefix pat.dst_ip v (fun x -> { pat with dst_ip = x })
  | Proto v -> exact Int.equal pat.proto v (fun x -> { pat with proto = x })
  | Src_port v ->
      exact Int.equal pat.src_port v (fun x -> { pat with src_port = x })
  | Dst_port v ->
      exact Int.equal pat.dst_port v (fun x -> { pat with dst_port = x })

let pp_key fmt k =
  let p name to_s v = Format.fprintf fmt "%s=%s" name (to_s v) in
  match k with
  | Port v -> p "port" string_of_int v
  | Src_mac v -> p "src_mac" Mac.to_string v
  | Dst_mac v -> p "dst_mac" Mac.to_string v
  | Eth_type v -> p "eth_type" (Printf.sprintf "0x%04x") v
  | Src_ip v -> p "src_ip" Prefix.to_string v
  | Dst_ip v -> p "dst_ip" Prefix.to_string v
  | Proto v -> p "proto" string_of_int v
  | Src_port v -> p "src_port" string_of_int v
  | Dst_port v -> p "dst_port" string_of_int v

(* ------------------------------------------------------------------ *)
(* Nodes and the manager.                                              *)

type t = { id : int; node : node }
and node = Leaf of Mods.t list | Branch of key * t * t

module Leaf_key = struct
  type t = Mods.t list

  let equal = List.equal Mods.equal
  let hash l = List.fold_left (fun h m -> (h * 31) + Mods.hash m) 0x1505 l
end

module Leaf_tbl = Hashtbl.Make (Leaf_key)

module Branch_key = struct
  type nonrec t = key * int * int

  let equal (k1, h1, l1) (k2, h2, l2) = h1 = h2 && l1 = l2 && key_equal k1 k2
  let hash (k, h, l) = (((key_hash k * 31) + h) * 31) + l
end

module Branch_tbl = Hashtbl.Make (Branch_key)

module Pair_key = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x01000193) lxor b
end

module Pair_tbl = Hashtbl.Make (Pair_key)

module Triple_key = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (((a * 31) + b) * 31) + c
end

module Triple_tbl = Hashtbl.Make (Triple_key)

module Assume_key = struct
  type nonrec t = key * int * bool

  let equal (k1, d1, s1) (k2, d2, s2) = d1 = d2 && s1 = s2 && key_equal k1 k2
  let hash (k, d, s) = (((key_hash k * 31) + d) * 2) + Bool.to_int s
end

module Assume_tbl = Hashtbl.Make (Assume_key)

module Push_key = struct
  type t = Mods.t * int

  let equal (m1, d1) (m2, d2) = d1 = d2 && Mods.equal m1 m2
  let hash (m, d) = (Mods.hash m * 31) + d
end

module Push_tbl = Hashtbl.Make (Push_key)

type manager = {
  mutable next_id : int;
  leaves : t Leaf_tbl.t;
  branches : t Branch_tbl.t;
  memo_union : t Pair_tbl.t;
  memo_inter : t Pair_tbl.t;
  memo_seq : t Pair_tbl.t;
  memo_ite : t Triple_tbl.t;
  memo_cond : t Branch_tbl.t;
  memo_assume : t Assume_tbl.t;
  memo_push : t Push_tbl.t;
  memo_neg : (int, t) Hashtbl.t;
  mutable hits : int;
}

let create () =
  {
    next_id = 0;
    leaves = Leaf_tbl.create 256;
    branches = Branch_tbl.create 1024;
    memo_union = Pair_tbl.create 1024;
    memo_inter = Pair_tbl.create 256;
    memo_seq = Pair_tbl.create 1024;
    memo_ite = Triple_tbl.create 256;
    memo_cond = Branch_tbl.create 1024;
    memo_assume = Assume_tbl.create 1024;
    memo_push = Push_tbl.create 1024;
    memo_neg = Hashtbl.create 64;
    hits = 0;
  }

let canon_actions = List.sort_uniq Mods.compare

let leaf mgr acts =
  let acts = canon_actions acts in
  match Leaf_tbl.find_opt mgr.leaves acts with
  | Some d -> d
  | None ->
      let d = { id = mgr.next_id; node = Leaf acts } in
      mgr.next_id <- mgr.next_id + 1;
      Leaf_tbl.replace mgr.leaves acts d;
      d

let branch mgr k hi lo =
  if hi.id = lo.id then hi
  else
    let key = (k, hi.id, lo.id) in
    match Branch_tbl.find_opt mgr.branches key with
    | Some d -> d
    | None ->
        let d = { id = mgr.next_id; node = Branch (k, hi, lo) } in
        mgr.next_id <- mgr.next_id + 1;
        Branch_tbl.replace mgr.branches key d;
        d

let drop mgr = leaf mgr []
let id mgr = leaf mgr [ Mods.identity ]
let const mgr acts = leaf mgr acts
let root_key d = match d.node with Leaf _ -> None | Branch (k, _, _) -> Some k

(* ------------------------------------------------------------------ *)
(* Restriction: rewrite a diagram under a decided key.                  *)

(* [assume mgr k sense d] is [d] specialized to packets on which test
   [k] evaluates to [sense], resolving every same-field test the
   assumption decides.  Tests on later fields are unaffected, and keys
   only grow along a path, so the walk stops at the first node past
   [k]'s field. *)
let rec assume mgr k sense d =
  match d.node with
  | Leaf _ -> d
  | Branch (k2, _, _) when field_index k2 > field_index k -> d
  | Branch (k2, hi, lo) -> (
      let mkey = (k, d.id, sense) in
      match Assume_tbl.find_opt mgr.memo_assume mkey with
      | Some r ->
          mgr.hits <- mgr.hits + 1;
          r
      | None ->
          let r =
            if field_index k2 = field_index k then
              if sense then
                if implies k k2 then assume mgr k sense hi
                else if excludes k k2 then assume mgr k sense lo
                else
                  branch mgr k2 (assume mgr k sense hi) (assume mgr k sense lo)
              else if neg_implies_neg k k2 then assume mgr k sense lo
              else branch mgr k2 (assume mgr k sense hi) (assume mgr k sense lo)
            else branch mgr k2 (assume mgr k sense hi) (assume mgr k sense lo)
          in
          Assume_tbl.replace mgr.memo_assume mkey r;
          r)

(* [cond mgr k t f]: the diagram that tests [k] and behaves as [t] on
   true, [f] on false — re-establishing the canonical order when [k] is
   not the smallest key involved. *)
let rec cond mgr k t f =
  if t.id = f.id then t
  else
    let mkey = (k, t.id, f.id) in
    match Branch_tbl.find_opt mgr.memo_cond mkey with
    | Some d ->
        mgr.hits <- mgr.hits + 1;
        d
    | None ->
        let le d =
          match root_key d with
          | None -> true
          | Some k2 -> key_compare k k2 <= 0
        in
        let d =
          if le t && le f then
            branch mgr k (assume mgr k true t) (assume mgr k false f)
          else
            let m =
              match (root_key t, root_key f) with
              | Some a, Some b -> if key_compare a b <= 0 then a else b
              | Some a, None -> a
              | None, Some b -> b
              | None, None -> assert false
            in
            (* [m] precedes [k]; hoist it and push the conditional down. *)
            let split_hi d =
              match d.node with
              | Branch (k2, hi, _) when key_equal k2 m -> hi
              | _ -> d
            and split_lo d =
              match d.node with
              | Branch (k2, _, lo) when key_equal k2 m -> lo
              | _ -> d
            in
            branch mgr m
              (cond mgr k (split_hi t) (split_hi f))
              (cond mgr k (split_lo t) (split_lo f))
        in
        Branch_tbl.replace mgr.memo_cond mkey d;
        d

(* ------------------------------------------------------------------ *)
(* Composition.                                                         *)

let rec union mgr a b =
  if a.id = b.id then a
  else
    match (a.node, b.node) with
    | Leaf [], _ -> b
    | _, Leaf [] -> a
    | _ -> (
        let mkey = if a.id < b.id then (a.id, b.id) else (b.id, a.id) in
        match Pair_tbl.find_opt mgr.memo_union mkey with
        | Some d ->
            mgr.hits <- mgr.hits + 1;
            d
        | None ->
            let d =
              match (a.node, b.node) with
              | Leaf x, Leaf y -> leaf mgr (List.rev_append x y)
              | Leaf _, Branch (k, hi, lo) ->
                  branch mgr k (union mgr a hi) (union mgr a lo)
              | Branch (k, hi, lo), Leaf _ ->
                  branch mgr k (union mgr hi b) (union mgr lo b)
              | Branch (k1, h1, l1), Branch (k2, h2, l2) ->
                  let c = key_compare k1 k2 in
                  if c = 0 then
                    branch mgr k1 (union mgr h1 h2) (union mgr l1 l2)
                  else if c < 0 then
                    branch mgr k1 (union mgr h1 b) (union mgr l1 b)
                  else branch mgr k2 (union mgr a h2) (union mgr a l2)
            in
            Pair_tbl.replace mgr.memo_union mkey d;
            d)

(* Boolean conjunction — both operands must be predicate diagrams
   (leaves empty or [[identity]]). *)
let rec inter mgr a b =
  if a.id = b.id then a
  else
    match (a.node, b.node) with
    | Leaf [], _ | _, Leaf [] -> drop mgr
    | Leaf _, _ -> b
    | _, Leaf _ -> a
    | _ -> (
        let mkey = if a.id < b.id then (a.id, b.id) else (b.id, a.id) in
        match Pair_tbl.find_opt mgr.memo_inter mkey with
        | Some d ->
            mgr.hits <- mgr.hits + 1;
            d
        | None ->
            let d =
              match (a.node, b.node) with
              | Branch (k1, h1, l1), Branch (k2, h2, l2) ->
                  let c = key_compare k1 k2 in
                  if c = 0 then
                    branch mgr k1 (inter mgr h1 h2) (inter mgr l1 l2)
                  else if c < 0 then
                    branch mgr k1 (inter mgr h1 b) (inter mgr l1 b)
                  else branch mgr k2 (inter mgr a h2) (inter mgr a l2)
              | _ -> assert false
            in
            Pair_tbl.replace mgr.memo_inter mkey d;
            d)

(* Boolean negation of a predicate diagram. *)
let rec neg mgr d =
  match d.node with
  | Leaf [] -> id mgr
  | Leaf _ -> drop mgr
  | Branch (k, hi, lo) -> (
      match Hashtbl.find_opt mgr.memo_neg d.id with
      | Some r ->
          mgr.hits <- mgr.hits + 1;
          r
      | None ->
          let r = branch mgr k (neg mgr hi) (neg mgr lo) in
          Hashtbl.replace mgr.memo_neg d.id r;
          r)

(* [push mgr m d] is [fun pkt -> d (Mods.apply m pkt)], with [m]
   composed onto every resulting action — one atom of [seq].  Tests on
   fields [m] writes are decided statically (the diagram-level
   counterpart of {!Pattern.pull_back}). *)
let rec push mgr m d =
  let mkey = (m, d.id) in
  match Push_tbl.find_opt mgr.memo_push mkey with
  | Some r ->
      mgr.hits <- mgr.hits + 1;
      r
  | None ->
      let r =
        match d.node with
        | Leaf acts -> leaf mgr (List.map (fun b -> Mods.then_ m b) acts)
        | Branch (k, hi, lo) -> (
            match mod_determines m k with
            | Some true -> push mgr m hi
            | Some false -> push mgr m lo
            | None -> branch mgr k (push mgr m hi) (push mgr m lo))
      in
      Push_tbl.replace mgr.memo_push mkey r;
      r

let rec seq mgr a b =
  match a.node with
  | Leaf [] -> a
  | _ -> (
      let mkey = (a.id, b.id) in
      match Pair_tbl.find_opt mgr.memo_seq mkey with
      | Some d ->
          mgr.hits <- mgr.hits + 1;
          d
      | None ->
          let d =
            match a.node with
            | Leaf acts ->
                List.fold_left
                  (fun acc m -> union mgr acc (push mgr m b))
                  (drop mgr) acts
            | Branch (k, hi, lo) ->
                cond mgr k (seq mgr hi b) (seq mgr lo b)
          in
          Pair_tbl.replace mgr.memo_seq mkey d;
          d)

let rec ite mgr c a b =
  match c.node with
  | Leaf [] -> b
  | Leaf _ -> a
  | Branch (k, hi, lo) ->
      if a.id = b.id then a
      else (
        let mkey = (c.id, a.id, b.id) in
        match Triple_tbl.find_opt mgr.memo_ite mkey with
        | Some d ->
            mgr.hits <- mgr.hits + 1;
            d
        | None ->
            let d = cond mgr k (ite mgr hi a b) (ite mgr lo a b) in
            Triple_tbl.replace mgr.memo_ite mkey d;
            d)

(* ------------------------------------------------------------------ *)
(* Front end.                                                          *)

let of_pattern mgr pat =
  List.fold_right
    (fun k acc -> branch mgr k acc (drop mgr))
    (keys_of_pattern pat) (id mgr)

let rec of_pred mgr (p : Pred.t) =
  match p with
  | Pred.True -> id mgr
  | Pred.False -> drop mgr
  | Pred.Test pat -> of_pattern mgr pat
  | Pred.And (a, b) -> inter mgr (of_pred mgr a) (of_pred mgr b)
  | Pred.Or (a, b) -> union mgr (of_pred mgr a) (of_pred mgr b)
  | Pred.Not a -> neg mgr (of_pred mgr a)

let rec of_policy mgr (pol : Policy.t) =
  match pol with
  | Policy.Filter p -> of_pred mgr p
  | Policy.Mod m -> leaf mgr [ m ]
  | Policy.Union (a, b) -> union mgr (of_policy mgr a) (of_policy mgr b)
  | Policy.Seq (a, b) -> seq mgr (of_policy mgr a) (of_policy mgr b)
  | Policy.If (c, a, b) ->
      ite mgr (of_pred mgr c) (of_policy mgr a) (of_policy mgr b)

let restrict mgr pat d = ite mgr (of_pattern mgr pat) d (drop mgr)

(* ------------------------------------------------------------------ *)
(* Consumption.                                                        *)

let rec eval d pkt =
  match d.node with
  | Leaf acts -> acts
  | Branch (k, hi, lo) -> eval (if key_matches k pkt then hi else lo) pkt

(* Depth-first, true edge first: a packet's first matching rule is the
   rule of its own root-to-leaf path.  Positive tests refine the
   pattern; a refinement failure means the path is unsatisfiable.
   Paths whose pattern already appeared can never be a first match, so
   they are dropped (the same dedup the cross-product engine does). *)
let to_classifier d =
  let seen = Pattern.Tbl.create 64 in
  let acc = ref [] in
  let rec go pat d =
    match d.node with
    | Leaf acts ->
        if not (Pattern.Tbl.mem seen pat) then begin
          Pattern.Tbl.replace seen pat ();
          acc := { Classifier.pattern = pat; action = acts } :: !acc
        end
    | Branch (k, hi, lo) ->
        (match refine_pattern pat k with
        | Some pat' -> go pat' hi
        | None -> ());
        go pat lo
  in
  go Pattern.all d;
  List.rev !acc

let node_id (d : t) = d.id

let size d =
  let seen = Hashtbl.create 64 in
  let rec go d =
    if not (Hashtbl.mem seen d.id) then begin
      Hashtbl.replace seen d.id ();
      match d.node with
      | Leaf _ -> ()
      | Branch (_, hi, lo) ->
          go hi;
          go lo
    end
  in
  go d;
  Hashtbl.length seen

type stats = { nodes : int; memo_hits : int; unique_table_size : int }

let stats mgr =
  {
    nodes = mgr.next_id;
    memo_hits = mgr.hits;
    unique_table_size =
      Leaf_tbl.length mgr.leaves + Branch_tbl.length mgr.branches;
  }

let check_unique d =
  let ok = ref true in
  let seen = Hashtbl.create 64 in
  let leaves = Leaf_tbl.create 64 in
  let branches = Branch_tbl.create 64 in
  let rec go d =
    if not (Hashtbl.mem seen d.id) then begin
      Hashtbl.replace seen d.id ();
      match d.node with
      | Leaf acts -> (
          match Leaf_tbl.find_opt leaves acts with
          | Some id' when id' <> d.id -> ok := false
          | _ -> Leaf_tbl.replace leaves acts d.id)
      | Branch (k, hi, lo) ->
          let key = (k, hi.id, lo.id) in
          (match Branch_tbl.find_opt branches key with
          | Some id' when id' <> d.id -> ok := false
          | _ -> Branch_tbl.replace branches key d.id);
          go hi;
          go lo
    end
  in
  go d;
  !ok

let rec pp fmt d =
  match d.node with
  | Leaf [] -> Format.pp_print_string fmt "drop"
  | Leaf acts ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
           Mods.pp)
        acts
  | Branch (k, hi, lo) ->
      Format.fprintf fmt "@[<hv 2>(%a@ ? %a@ : %a)@]" pp_key k pp hi pp lo
