open Sdx_net

type t = {
  port : int option;
  src_mac : Mac.t option;
  dst_mac : Mac.t option;
  eth_type : int option;
  src_ip : Ipv4.t option;
  dst_ip : Ipv4.t option;
  proto : int option;
  src_port : int option;
  dst_port : int option;
}

let identity =
  {
    port = None;
    src_mac = None;
    dst_mac = None;
    eth_type = None;
    src_ip = None;
    dst_ip = None;
    proto = None;
    src_port = None;
    dst_port = None;
  }

let is_identity t = t = identity

let make ?port ?src_mac ?dst_mac ?eth_type ?src_ip ?dst_ip ?proto ?src_port
    ?dst_port () =
  { port; src_mac; dst_mac; eth_type; src_ip; dst_ip; proto; src_port; dst_port }

let apply_at t ~port (p : Packet.t) : Packet.t =
  let set field v = Option.value v ~default:field in
  {
    Packet.port;
    src_mac = set p.src_mac t.src_mac;
    dst_mac = set p.dst_mac t.dst_mac;
    eth_type = set p.eth_type t.eth_type;
    src_ip = set p.src_ip t.src_ip;
    dst_ip = set p.dst_ip t.dst_ip;
    proto = set p.proto t.proto;
    src_port = set p.src_port t.src_port;
    dst_port = set p.dst_port t.dst_port;
  }

let apply t (p : Packet.t) = apply_at t ~port:(Option.value t.port ~default:p.port) p

let then_ a b =
  let pick xa xb = if Option.is_some xb then xb else xa in
  {
    port = pick a.port b.port;
    src_mac = pick a.src_mac b.src_mac;
    dst_mac = pick a.dst_mac b.dst_mac;
    eth_type = pick a.eth_type b.eth_type;
    src_ip = pick a.src_ip b.src_ip;
    dst_ip = pick a.dst_ip b.dst_ip;
    proto = pick a.proto b.proto;
    src_port = pick a.src_port b.src_port;
    dst_port = pick a.dst_port b.dst_port;
  }

let compare = Stdlib.compare

let equal a b =
  Option.equal Int.equal a.port b.port
  && Option.equal Mac.equal a.src_mac b.src_mac
  && Option.equal Mac.equal a.dst_mac b.dst_mac
  && Option.equal Int.equal a.eth_type b.eth_type
  && Option.equal Ipv4.equal a.src_ip b.src_ip
  && Option.equal Ipv4.equal a.dst_ip b.dst_ip
  && Option.equal Int.equal a.proto b.proto
  && Option.equal Int.equal a.src_port b.src_port
  && Option.equal Int.equal a.dst_port b.dst_port

(* Same FNV-style mix as [Pattern.hash]; every field of a modification is
   exact, so one combiner per field suffices. *)
let hash t =
  let mix h v = (h * 0x01000193) lxor (v land max_int) in
  let exact h = function None -> mix h 0x5bd1e995 | Some v -> mix h (v + 1) in
  let exact_mac h = function
    | None -> mix h 0x5bd1e995
    | Some m -> mix h (Mac.to_int m + 1)
  in
  let exact_ip h = function
    | None -> mix h 0x5bd1e995
    | Some ip -> mix h (Ipv4.to_int ip + 1)
  in
  let h = exact 0x811c9dc5 t.port in
  let h = exact_mac h t.src_mac in
  let h = exact_mac h t.dst_mac in
  let h = exact h t.eth_type in
  let h = exact_ip h t.src_ip in
  let h = exact_ip h t.dst_ip in
  let h = exact h t.proto in
  let h = exact h t.src_port in
  exact h t.dst_port

let pp fmt t =
  let parts = ref [] in
  let add name to_s = function
    | Some v -> parts := Printf.sprintf "%s:=%s" name (to_s v) :: !parts
    | None -> ()
  in
  add "port" string_of_int t.port;
  add "src_mac" Mac.to_string t.src_mac;
  add "dst_mac" Mac.to_string t.dst_mac;
  add "eth_type" (Printf.sprintf "0x%04x") t.eth_type;
  add "src_ip" Ipv4.to_string t.src_ip;
  add "dst_ip" Ipv4.to_string t.dst_ip;
  add "proto" string_of_int t.proto;
  add "src_port" string_of_int t.src_port;
  add "dst_port" string_of_int t.dst_port;
  if !parts = [] then Format.pp_print_string fmt "id"
  else Format.fprintf fmt "{%s}" (String.concat "; " (List.rev !parts))
