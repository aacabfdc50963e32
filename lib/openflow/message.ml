type flow_mod_command = Add | Delete_strict | Delete_by_cookie

type t =
  | Flow_mod of { command : flow_mod_command; cookie : int; flow : Flow.t }
  | Barrier_request of int
  | Barrier_reply of int
  | Echo_request of int
  | Echo_reply of int

let add ?(cookie = 0) flow = Flow_mod { command = Add; cookie; flow }
let delete ?(cookie = 0) flow = Flow_mod { command = Delete_strict; cookie; flow }

let delete_cookie cookie =
  Flow_mod
    {
      command = Delete_by_cookie;
      cookie;
      flow = Flow.make ~priority:0 ~pattern:Sdx_policy.Pattern.all ~actions:[];
    }

let pp fmt = function
  | Flow_mod { command; cookie; flow } ->
      let cmd =
        match command with
        | Add -> "add"
        | Delete_strict -> "delete"
        | Delete_by_cookie -> "delete-cookie"
      in
      Format.fprintf fmt "flow_mod %s cookie=%d %a" cmd cookie Flow.pp flow
  | Barrier_request xid -> Format.fprintf fmt "barrier_request xid=%d" xid
  | Barrier_reply xid -> Format.fprintf fmt "barrier_reply xid=%d" xid
  | Echo_request xid -> Format.fprintf fmt "echo_request xid=%d" xid
  | Echo_reply xid -> Format.fprintf fmt "echo_reply xid=%d" xid
