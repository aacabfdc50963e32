open Sdx_net

type open_msg = { asn : Asn.t; hold_time : int; bgp_id : Ipv4.t }

type attrs = {
  origin : Route.origin;
  as_path : Asn.t list;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  communities : (int * int) list;
}

type update_msg = {
  withdrawn : Prefix.t list;
  attrs : attrs option;
  nlri : Prefix.t list;
}

type t =
  | Open of open_msg
  | Update of update_msg
  | Keepalive
  | Notification of { code : int; subcode : int }

let as_trans = Asn.of_int 23456
let header_len = 19
let marker_byte = '\xff'

(* Message type codes. *)
let t_open = 1
let t_update = 2
let t_notification = 3
let t_keepalive = 4

(* Path attribute type codes. *)
let a_origin = 1
let a_as_path = 2
let a_next_hop = 3
let a_med = 4
let a_local_pref = 5
let a_communities = 8

(* ------------------------------------------------------------------ *)
(* A tiny growable byte buffer.                                        *)

module B = struct
  let u8 buf v = Buffer.add_uint8 buf (v land 0xFF)

  let u16 buf v =
    u8 buf (v lsr 8);
    u8 buf v

  let u32 buf v =
    u16 buf (v lsr 16);
    u16 buf (v land 0xFFFF)
end

let two_byte_asn asn =
  let v = Asn.to_int asn in
  if v > 0xFFFF then Asn.to_int as_trans else v

(* NLRI encoding: one length byte then the minimal prefix bytes. *)
let encode_prefix buf p =
  let len = Prefix.length p in
  B.u8 buf len;
  let network = Ipv4.to_int (Prefix.network p) in
  for i = 0 to ((len + 7) / 8) - 1 do
    B.u8 buf ((network lsr (8 * (3 - i))) land 0xFF)
  done

let encode_attrs buf (a : attrs) =
  let attr ?(flags = 0x40) type_code payload =
    B.u8 buf flags;
    B.u8 buf type_code;
    B.u8 buf (Buffer.length payload);
    Buffer.add_buffer buf payload
  in
  let payload f =
    let b = Buffer.create 8 in
    f b;
    b
  in
  attr a_origin
    (payload (fun b ->
         B.u8 b
           (match a.origin with
           | Route.Igp -> 0
           | Route.Egp -> 1
           | Route.Incomplete -> 2)));
  attr a_as_path
    (payload (fun b ->
         match a.as_path with
         | [] -> ()
         | path ->
             B.u8 b 2 (* AS_SEQUENCE *);
             B.u8 b (List.length path);
             List.iter (fun asn -> B.u16 b (two_byte_asn asn)) path));
  attr a_next_hop (payload (fun b -> B.u32 b (Ipv4.to_int a.next_hop)));
  Option.iter
    (fun med -> attr ~flags:0x80 a_med (payload (fun b -> B.u32 b med)))
    a.med;
  Option.iter
    (fun lp -> attr a_local_pref (payload (fun b -> B.u32 b lp)))
    a.local_pref;
  if a.communities <> [] then
    attr ~flags:0xC0 a_communities
      (payload (fun b ->
           List.iter
             (fun (hi, lo) ->
               B.u16 b hi;
               B.u16 b lo)
             a.communities))

let encode msg =
  let body = Buffer.create 64 in
  let type_code =
    match msg with
    | Open o ->
        B.u8 body 4 (* version *);
        B.u16 body (two_byte_asn o.asn);
        B.u16 body o.hold_time;
        B.u32 body (Ipv4.to_int o.bgp_id);
        B.u8 body 0 (* no optional parameters *);
        t_open
    | Update u ->
        let withdrawn = Buffer.create 16 in
        List.iter (encode_prefix withdrawn) u.withdrawn;
        B.u16 body (Buffer.length withdrawn);
        Buffer.add_buffer body withdrawn;
        let attrs = Buffer.create 32 in
        Option.iter (encode_attrs attrs) u.attrs;
        B.u16 body (Buffer.length attrs);
        Buffer.add_buffer body attrs;
        List.iter (encode_prefix body) u.nlri;
        t_update
    | Keepalive -> t_keepalive
    | Notification { code; subcode } ->
        B.u8 body code;
        B.u8 body subcode;
        t_notification
  in
  let total = header_len + Buffer.length body in
  let out = Buffer.create total in
  for _ = 1 to 16 do
    Buffer.add_char out marker_byte
  done;
  B.u16 out total;
  B.u8 out type_code;
  Buffer.add_buffer out body;
  Buffer.to_bytes out

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

type error = { code : int; subcode : int; reason : string }

exception Bad of error

(* [bad code subcode fmt]: the RFC 4271 NOTIFICATION error code and
   subcode the failure calls for, and its text. *)
let bad code subcode fmt =
  Printf.ksprintf (fun reason -> raise (Bad { code; subcode; reason })) fmt

(* [base] is where the message starts in [buf]; offsets in errors are
   relative to it. *)
type cursor = { buf : bytes; base : int; mutable pos : int; limit : int }

(* A truncated UPDATE is a malformed attribute list (3/1); any other
   message too short for its type has a bad length (1/2). *)
let need c n =
  if c.pos + n > c.limit then
    if Bytes.get_uint8 c.buf (c.base + 18) = t_update then
      bad 3 1 "truncated at offset %d" (c.pos - c.base)
    else bad 1 2 "truncated at offset %d" (c.pos - c.base)

let u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let hi = u8 c in
  (hi lsl 8) lor u8 c

let u32 c =
  let hi = u16 c in
  (hi lsl 16) lor u16 c

let decode_prefix c =
  let len = u8 c in
  if len > 32 then bad 3 10 "prefix length %d" len;
  let bytes_needed = (len + 7) / 8 in
  let network = ref 0 in
  for i = 0 to bytes_needed - 1 do
    network := !network lor (u8 c lsl (8 * (3 - i)))
  done;
  Prefix.make (Ipv4.of_int !network) len

let decode_prefixes c until =
  let acc = ref [] in
  while c.pos < until do
    acc := decode_prefix c :: !acc
  done;
  List.rev !acc

let decode_attrs c until =
  let origin = ref Route.Igp in
  let as_path = ref [] in
  let next_hop = ref None in
  let med = ref None in
  let local_pref = ref None in
  let communities = ref [] in
  while c.pos < until do
    let flags = u8 c in
    let type_code = u8 c in
    let len = if flags land 0x10 <> 0 then u16 c else u8 c in
    let value_end = c.pos + len in
    if value_end > until then bad 3 1 "attribute overruns message";
    (if type_code = a_origin then
       origin :=
         match u8 c with
         | 0 -> Route.Igp
         | 1 -> Route.Egp
         | 2 -> Route.Incomplete
         | v -> bad 3 6 "origin %d" v
     else if type_code = a_as_path then begin
       if len > 0 then begin
         let seg_type = u8 c in
         if seg_type <> 2 then bad 3 11 "AS_PATH segment type %d" seg_type;
         let count = u8 c in
         (* Read sequentially: the wire order is the path order. *)
         let rec read k acc =
           if k = 0 then List.rev acc
           else read (k - 1) (Asn.of_int (u16 c) :: acc)
         in
         as_path := read count []
       end
     end
     else if type_code = a_next_hop then next_hop := Some (Ipv4.of_int (u32 c))
     else if type_code = a_med then med := Some (u32 c)
     else if type_code = a_local_pref then local_pref := Some (u32 c)
     else if type_code = a_communities then begin
       let n = len / 4 in
       let rec read k acc =
         if k = 0 then List.rev acc
         else begin
           let hi = u16 c in
           let lo = u16 c in
           read (k - 1) ((hi, lo) :: acc)
         end
       in
       communities := read n []
     end
     else c.pos <- value_end (* skip unknown attributes *));
    if c.pos <> value_end then bad 3 5 "attribute %d length mismatch" type_code
  done;
  match !next_hop with
  | None -> None
  | Some next_hop ->
      Some
        {
          origin = !origin;
          as_path = !as_path;
          next_hop;
          med = !med;
          local_pref = !local_pref;
          communities = !communities;
        }

let decode_sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Wire.decode_sub: range outside the buffer";
  match
    if len < header_len then bad 1 2 "shorter than a BGP header";
    for i = 0 to 15 do
      if Bytes.get buf (pos + i) <> marker_byte then bad 1 1 "bad marker"
    done;
    let declared = Bytes.get_uint16_be buf (pos + 16) in
    if declared <> len then bad 1 2 "declared length %d, got %d" declared len;
    let type_code = Bytes.get_uint8 buf (pos + 18) in
    let c = { buf; base = pos; pos = pos + header_len; limit = pos + len } in
    if type_code = t_open then begin
      let version = u8 c in
      if version <> 4 then bad 2 1 "BGP version %d" version;
      let asn = Asn.of_int (u16 c) in
      let hold_time = u16 c in
      let bgp_id = Ipv4.of_int (u32 c) in
      let opt_len = u8 c in
      c.pos <- c.pos + opt_len;
      Open { asn; hold_time; bgp_id }
    end
    else if type_code = t_update then begin
      let withdrawn_len = u16 c in
      let withdrawn = decode_prefixes c (c.pos + withdrawn_len) in
      let attrs_len = u16 c in
      let attrs = decode_attrs c (c.pos + attrs_len) in
      let nlri = decode_prefixes c c.limit in
      if nlri <> [] && attrs = None then bad 3 3 "NLRI without a NEXT_HOP";
      Update { withdrawn; attrs; nlri }
    end
    else if type_code = t_keepalive then Keepalive
    else if type_code = t_notification then begin
      let code = u8 c in
      let subcode = u8 c in
      Notification { code; subcode }
    end
    else bad 1 3 "message type %d" type_code
  with
  | msg -> Ok msg
  | exception Bad e -> Error e

let decode buf = decode_sub buf ~pos:0 ~len:(Bytes.length buf)

(* ------------------------------------------------------------------ *)

let of_update = function
  | Update.Announce (r : Route.t) ->
      Update
        {
          withdrawn = [];
          attrs =
            Some
              {
                origin = r.origin;
                as_path = r.as_path;
                next_hop = r.next_hop;
                med = Some r.med;
                local_pref = Some r.local_pref;
                communities = r.communities;
              };
          nlri = [ r.prefix ];
        }
  | Update.Withdraw { prefix; _ } ->
      Update { withdrawn = [ prefix ]; attrs = None; nlri = [] }

let to_updates ~peer = function
  | Update u ->
      let withdrawals =
        List.map (fun prefix -> Update.withdraw ~peer prefix) u.withdrawn
      in
      let announcements =
        match u.attrs with
        | None -> []
        | Some a ->
            List.map
              (fun prefix ->
                Update.announce
                  (Route.make ~prefix ~next_hop:a.next_hop ~as_path:a.as_path
                     ?local_pref:a.local_pref ?med:a.med ~origin:a.origin
                     ~communities:a.communities ~learned_from:peer ()))
              u.nlri
      in
      withdrawals @ announcements
  | Open _ | Keepalive | Notification _ -> []

let pp fmt = function
  | Open o ->
      Format.fprintf fmt "OPEN %a hold=%d id=%a" Asn.pp o.asn o.hold_time
        Ipv4.pp o.bgp_id
  | Update u ->
      Format.fprintf fmt "UPDATE withdrawn=[%s] nlri=[%s]"
        (String.concat ", " (List.map Prefix.to_string u.withdrawn))
        (String.concat ", " (List.map Prefix.to_string u.nlri))
  | Keepalive -> Format.pp_print_string fmt "KEEPALIVE"
  | Notification { code; subcode } ->
      Format.fprintf fmt "NOTIFICATION %d/%d" code subcode
