(* Packed bitsets: see bitset.mli.  Cells pack [Sys.int_size] bits
   (63 on 64-bit), so a 500-participant, ~10k-spec export vector is
   ~160 words instead of a [Prefix.Set.t] per spec, and a 300-member
   receiver set is five cells. *)

let bits_per_cell = Sys.int_size

type t = { nbits : int; cells : int array }

let create nbits =
  if nbits < 0 then invalid_arg "Bitset.create: negative width";
  let ncells = (nbits + bits_per_cell - 1) / bits_per_cell in
  { nbits; cells = Array.make ncells 0 }

let width v = v.nbits

let set v i =
  if i < 0 || i >= v.nbits then invalid_arg "Bitset.set: out of range";
  let cell = i / bits_per_cell and bit = i mod bits_per_cell in
  v.cells.(cell) <- v.cells.(cell) lor (1 lsl bit)

let mem v i =
  if i < 0 || i >= v.nbits then false
  else
    let cell = i / bits_per_cell and bit = i mod bits_per_cell in
    v.cells.(cell) land (1 lsl bit) <> 0

let equal a b =
  a.nbits = b.nbits
  &&
  let n = Array.length a.cells in
  let rec go i = i >= n || (a.cells.(i) = b.cells.(i) && go (i + 1)) in
  go 0

let compare a b =
  let c = Stdlib.compare a.nbits b.nbits in
  if c <> 0 then c
  else
    let n = Array.length a.cells in
    let rec go i =
      if i >= n then 0
      else
        let c = Stdlib.compare a.cells.(i) b.cells.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* FNV-ish multiply/xor mix: cells are mostly sparse, so plain
   summation would collide constantly between vectors sharing a
   popcount. *)
let hash v =
  let h = ref 0x9e3779b9 in
  for i = 0 to Array.length v.cells - 1 do
    let c = v.cells.(i) in
    h := ((!h lxor c) * 0x01000193) land max_int
  done;
  (!h lxor v.nbits) land max_int

let copy v = { nbits = v.nbits; cells = Array.copy v.cells }

(* Clearing by the caller's set-bit list touches only the dirtied cells,
   so a scratch buffer reused across a million sparse vectors costs
   O(set bits), not O(width), per reset. *)
let clear v i =
  if i < 0 || i >= v.nbits then invalid_arg "Bitset.clear: out of range";
  let cell = i / bits_per_cell and bit = i mod bits_per_cell in
  v.cells.(cell) <- v.cells.(cell) land lnot (1 lsl bit)

let popcount_cell c =
  let rec go c acc = if c = 0 then acc else go (c land (c - 1)) (acc + 1) in
  go c 0

let cardinal v = Array.fold_left (fun acc c -> acc + popcount_cell c) 0 v.cells

(* Index of the one set bit of [low], by halving: six tests where a
   shift loop takes up to 62 steps. *)
let bit_index low =
  let n = ref 0 and x = ref low in
  if !x land 0xFFFF_FFFF = 0 then (n := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr n;
  !n

let fold f v init =
  let acc = ref init in
  for cell = 0 to Array.length v.cells - 1 do
    let c = ref v.cells.(cell) in
    let base = cell * bits_per_cell in
    while !c <> 0 do
      let low = !c land - !c in
      acc := f (base + bit_index low) !acc;
      c := !c lxor low
    done
  done;
  !acc

let iter f v = fold (fun i () -> f i) v ()
let to_list v = List.rev (fold (fun i acc -> i :: acc) v [])

let of_list ~width ids =
  let v = create width in
  List.iter (set v) ids;
  v

let is_empty v = Array.for_all (fun c -> c = 0) v.cells

let combine name op a b =
  if a.nbits <> b.nbits then invalid_arg ("Bitset." ^ name ^ ": widths differ");
  { nbits = a.nbits; cells = Array.map2 op a.cells b.cells }

let inter a b = combine "inter" ( land ) a b
let union a b = combine "union" ( lor ) a b
let diff a b = combine "diff" (fun x y -> x land lnot y) a b
