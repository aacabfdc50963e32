(* A node at depth [d] represents the prefix formed by the path from the
   root; [value] is the binding for that prefix, if any.  Children branch on
   the next address bit (0 = left, 1 = right). *)
type 'a t = Leaf | Node of { value : 'a option; left : 'a t; right : 'a t }

let empty = Leaf

let is_empty = function
  | Leaf -> true
  | Node _ -> false

let node value left right =
  match (value, left, right) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; left; right }

(* Bit [i] of an address, counting from the most significant (i = 0). *)
let bit addr i = (Ipv4.to_int addr lsr (31 - i)) land 1

let add prefix v t =
  let addr = Prefix.network prefix and len = Prefix.length prefix in
  let rec go t depth =
    match t with
    | Leaf ->
        if depth = len then Node { value = Some v; left = Leaf; right = Leaf }
        else if bit addr depth = 0 then
          Node { value = None; left = go Leaf (depth + 1); right = Leaf }
        else Node { value = None; left = Leaf; right = go Leaf (depth + 1) }
    | Node { value; left; right } ->
        if depth = len then Node { value = Some v; left; right }
        else if bit addr depth = 0 then
          Node { value; left = go left (depth + 1); right }
        else Node { value; left; right = go right (depth + 1) }
  in
  go t 0

let remove prefix t =
  let addr = Prefix.network prefix and len = Prefix.length prefix in
  let rec go t depth =
    match t with
    | Leaf -> Leaf
    | Node { value; left; right } ->
        if depth = len then node None left right
        else if bit addr depth = 0 then node value (go left (depth + 1)) right
        else node value left (go right (depth + 1))
  in
  go t 0

let find_opt prefix t =
  let addr = Prefix.network prefix and len = Prefix.length prefix in
  let rec go t depth =
    match t with
    | Leaf -> None
    | Node { value; left; right } ->
        if depth = len then value
        else if bit addr depth = 0 then go left (depth + 1)
        else go right (depth + 1)
  in
  go t 0

let mem prefix t = Option.is_some (find_opt prefix t)

let longest_match addr t =
  let rec go t depth best =
    match t with
    | Leaf -> best
    | Node { value; left; right } ->
        let best =
          match value with
          | Some v -> Some (Prefix.make addr depth, v)
          | None -> best
        in
        if depth = 32 then best
        else if bit addr depth = 0 then go left (depth + 1) best
        else go right (depth + 1) best
  in
  go t 0 None

let matches addr t =
  let rec go t depth acc =
    match t with
    | Leaf -> acc
    | Node { value; left; right } ->
        let acc =
          match value with
          | Some v -> (Prefix.make addr depth, v) :: acc
          | None -> acc
        in
        if depth = 32 then acc
        else if bit addr depth = 0 then go left (depth + 1) acc
        else go right (depth + 1) acc
  in
  go t 0 []

(* Like [matches] but without materializing prefixes or a result list:
   the data-plane engine walks this once per packet, so the traversal
   must not allocate. *)
(* A top-level walk rather than a local closure over [addr] and [f], so
   a lookup allocates nothing. *)
let rec iter_matches_from addr f t depth =
  match t with
  | Leaf -> ()
  | Node { value; left; right } ->
      (match value with
      | Some v -> f v
      | None -> ());
      if depth < 32 then
        iter_matches_from addr f (if bit addr depth = 0 then left else right) (depth + 1)

let iter_matches addr f t = iter_matches_from addr f t 0

(* Overlap = one prefix contains the other: walk the query prefix's
   path collecting covering bindings, then fold the whole subtree under
   it (the covered bindings).  Cost is O(len + |subtree|), independent
   of the trie's total population — the point of the export-vector
   pipeline's restricted-spec fast path. *)
let fold_overlapping prefix f t init =
  let addr = Prefix.network prefix and len = Prefix.length prefix in
  let rec subtree t depth path acc =
    match t with
    | Leaf -> acc
    | Node { value; left; right } ->
        let acc =
          match value with
          | Some v -> f (Prefix.make (Ipv4.of_int path) depth) v acc
          | None -> acc
        in
        let acc = subtree left (depth + 1) path acc in
        if depth = 32 then acc
        else subtree right (depth + 1) (path lor (1 lsl (31 - depth))) acc
  in
  let rec walk t depth acc =
    match t with
    | Leaf -> acc
    | Node { value; left; right } ->
        if depth = len then subtree t depth (Ipv4.to_int addr) acc
        else
          let acc =
            match value with
            | Some v -> f (Prefix.make addr depth) v acc
            | None -> acc
          in
          if bit addr depth = 0 then walk left (depth + 1) acc
          else walk right (depth + 1) acc
  in
  walk t 0 init

let update prefix f t =
  match f (find_opt prefix t) with
  | Some v -> add prefix v t
  | None -> remove prefix t

let fold f t init =
  (* Accumulate path bits so we can rebuild each node's prefix. *)
  let rec go t depth path acc =
    match t with
    | Leaf -> acc
    | Node { value; left; right } ->
        let acc =
          match value with
          | Some v -> f (Prefix.make (Ipv4.of_int path) depth) v acc
          | None -> acc
        in
        let acc = go left (depth + 1) path acc in
        if depth = 32 then acc
        else go right (depth + 1) (path lor (1 lsl (31 - depth))) acc
  in
  go t 0 0 init

let iter f t = fold (fun p v () -> f p v) t ()
let cardinal t = fold (fun _ _ n -> n + 1) t 0
let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l
