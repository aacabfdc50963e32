open Sdx_net

(* Trunk frames are re-addressed into a reserved destination-MAC tag
   space so transit rules can select the *version* of the destination's
   transit rules that stamped them: the first octet is 0x06 (version
   parity 0) or 0x0E (parity 1) —
   locally-administered, unicast, and used by no participant MAC or VNH
   VMAC — and the low 40 bits carry an interned index of the original
   destination MAC.  Both the stamp (at the version-flipping ingress
   rule) and the strip (at the delivering transit rule) are plain
   constant dst-MAC rewrites, because the transit rule's pattern pins
   the tag and therefore knows the original address.

   An interned index rather than bit-twiddling keeps the scheme correct
   for arbitrary 48-bit participant MACs (Figure 1's aa:..:01 etc. use
   the high bits a flag would need). *)

let parity0_octet = 0x06
let parity1_octet = 0x0E
let octet_of mac = Mac.to_int mac lsr 40
let is_tagged mac = octet_of mac = parity0_octet || octet_of mac = parity1_octet

type t = {
  ids : (Mac.t, int) Hashtbl.t;
  mutable macs : Mac.t array;  (* id -> original, doubling *)
  mutable next : int;
}

let create () = { ids = Hashtbl.create 64; macs = Array.make 64 Mac.zero; next = 0 }

let intern t mac =
  match Hashtbl.find_opt t.ids mac with
  | Some id -> id
  | None ->
      if is_tagged mac then
        invalid_arg
          (Printf.sprintf
             "Vtag.intern: %s lies in the reserved trunk-tag space"
             (Mac.to_string mac));
      let id = t.next in
      if id >= Array.length t.macs then begin
        let bigger = Array.make (2 * Array.length t.macs) Mac.zero in
        Array.blit t.macs 0 bigger 0 (Array.length t.macs);
        t.macs <- bigger
      end;
      t.macs.(id) <- mac;
      Hashtbl.replace t.ids mac id;
      t.next <- id + 1;
      id

let stamp t ~version mac =
  let octet = if version land 1 = 0 then parity0_octet else parity1_octet in
  Mac.of_int ((octet lsl 40) lor intern t mac)

let parity mac =
  match octet_of mac with
  | o when o = parity0_octet -> Some 0
  | o when o = parity1_octet -> Some 1
  | _ -> None

let index mac = Mac.to_int mac land ((1 lsl 40) - 1)

let strip t mac =
  match parity mac with
  | None -> None
  | Some _ ->
      let id = index mac in
      if id < t.next then Some t.macs.(id) else None

let interned t = t.next
