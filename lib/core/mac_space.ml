open Sdx_net

let tag_octet_even = 0x06
let tag_octet_odd = 0x0E
let vmac_base = 0x02_00_00_00_00_00

let reserved mac =
  let m = Mac.to_int mac in
  let octet = m lsr 40 in
  if octet = tag_octet_even || octet = tag_octet_odd then
    Some "the fabric's trunk-tag space (first octet 06 or 0e)"
  else if m lsr 32 = vmac_base lsr 32 then
    Some "the VMAC block (02:00:00:00:00:00 plus a pool index below 2^32)"
  else None
