(* Interning for packed export vectors: see interner.mli. *)

open Sdx_bgp

type bitset = Bitset.t
type interned = { id : int; vector : bitset Lazy.t; ids : int list }

module H = Hashtbl.Make (struct
  type t = bitset

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

(* Probing by the (short, sorted) set-bit list costs O(popcount) per
   lookup where probing by the packed vector costs O(width) — with
   sparse vectors over thousands of specs that difference dominates
   the whole grouping pass.  Full-traversal FNV over the elements, so
   long lists don't degrade into the polymorphic hash's prefix
   truncation. *)
module Ids = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal

  let hash ids =
    List.fold_left
      (fun h i -> ((h lxor i) * 0x01000193) land max_int)
      0x811c9dc5 ids
end)

type t = {
  tbl : interned H.t;
  by_ids : interned Ids.t;
  by_rev : interned Ids.t;
  mutable unsynced : interned list;
      (* classes minted through the ids entry points whose packed
         vectors (and so [tbl] slots) have not been needed yet *)
  mutable next : int;
}

let create ?(expected = 256) () =
  {
    tbl = H.create expected;
    by_ids = Ids.create expected;
    by_rev = Ids.create expected;
    unsynced = [];
    next = 0;
  }

(* The ids entry points never build the packed vector: the grouping
   hot loop only consumes [id] and [ids], so materializing a
   width-proportional array per distinct class (hundreds of words at
   tens of thousands of specs) would be pure waste.  [tbl] is synced
   lazily instead: the vector-keyed entry points force the pending
   vectors first, so mixing entry points still dedupes correctly. *)
let sync t =
  match t.unsynced with
  | [] -> ()
  | pending ->
      List.iter (fun c -> H.replace t.tbl (Lazy.force c.vector) c) pending;
      t.unsynced <- []

(* [ids] must be the ascending set-bit list and [rev_ids] its
   reverse; both tables index the new class immediately, [tbl] only
   on the next [sync]. *)
let stamp t ~width ids rev_ids =
  let c = { id = t.next; vector = lazy (Bitset.of_list ~width ids); ids } in
  t.next <- t.next + 1;
  Ids.replace t.by_ids ids c;
  Ids.replace t.by_rev rev_ids c;
  t.unsynced <- c :: t.unsynced;
  c

let intern t v =
  sync t;
  match H.find_opt t.tbl v with
  | Some c -> c
  | None ->
      (* key on a private copy: the caller's buffer stays mutable. *)
      let vector = Bitset.copy v in
      let ids = Bitset.to_list vector in
      let c = { id = t.next; vector = Lazy.from_val vector; ids } in
      t.next <- t.next + 1;
      H.replace t.tbl vector c;
      Ids.replace t.by_ids ids c;
      Ids.replace t.by_rev (List.rev ids) c;
      c

let intern_sorted t ~width ids =
  match Ids.find_opt t.by_ids ids with
  | Some c -> c
  | None -> stamp t ~width ids (List.rev ids)

(* [rev_ids] must be the strictly-descending set-bit list — the
   natural shape of a list consed while scanning ids upward.  Probing
   keys on that shape directly, so the hot path (one lookup per
   sparse vector) never sorts or reverses; the O(popcount) reverse
   runs once per distinct class, on the miss path. *)
let intern_rev_sorted t ~width rev_ids =
  match Ids.find_opt t.by_rev rev_ids with
  | Some c -> c
  | None -> stamp t ~width (List.rev rev_ids) rev_ids

let find_opt t v =
  sync t;
  H.find_opt t.tbl v

let cardinal t = Ids.length t.by_ids
