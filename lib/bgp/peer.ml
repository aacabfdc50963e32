
type t = {
  local : Wire.open_msg;
  peer_asn : Asn.t;
  fsm : Fsm.t;
  rx : Buffer.t;  (* unparsed received bytes *)
  mutable tx : bytes list;  (* reversed output queue *)
  mutable flush : bool;
  mutable remote : Wire.open_msg option;
}

let create ~local ~peer_asn =
  {
    local;
    peer_asn;
    fsm = Fsm.create ();
    rx = Buffer.create 256;
    tx = [];
    flush = false;
    remote = None;
  }

let state t = Fsm.state t.fsm
let peer_asn t = t.peer_asn
let remote_open t = t.remote

let transmit t msg = t.tx <- Wire.encode msg :: t.tx

let pending_output t =
  let out = List.rev t.tx in
  t.tx <- [];
  out

let flush_requested t =
  let f = t.flush in
  t.flush <- false;
  f

let perform t action =
  match action with
  | Fsm.Send_open -> transmit t (Wire.Open t.local)
  | Fsm.Send_keepalive -> transmit t Wire.Keepalive
  | Fsm.Send_notification { code; subcode } ->
      transmit t (Wire.Notification { code; subcode })
  | Fsm.Flush_routes -> t.flush <- true
  | Fsm.Start_connection | Fsm.Drop_connection ->
      (* The transport is the caller's; nothing to do in this model. *)
      ()

let event t e = List.iter (perform t) (Fsm.handle t.fsm e)

let connect t =
  event t Fsm.Manual_start;
  (* The in-memory transport connects instantly. *)
  event t Fsm.Tcp_connected

let keepalive_due t = event t Fsm.Keepalive_timer_expired
let hold_expired t = event t Fsm.Hold_timer_expired

let send_update t update =
  if Fsm.state t.fsm = Fsm.Established then transmit t (Wire.of_update update)

let send_encoded t bytes =
  if Fsm.state t.fsm = Fsm.Established then t.tx <- Bytes.copy bytes :: t.tx

(* Extract one complete message from the head of [rx], if present: the
   declared length lives at bytes 16-17. *)
let take_message t =
  let len = Buffer.length t.rx in
  if len < 19 then None
  else
    let declared =
      (Char.code (Buffer.nth t.rx 16) lsl 8) lor Char.code (Buffer.nth t.rx 17)
    in
    if declared < 19 then Some (Error "declared message length below 19")
    else if len < declared then None
    else begin
      let msg = Bytes.of_string (String.sub (Buffer.contents t.rx) 0 declared) in
      let rest = String.sub (Buffer.contents t.rx) declared (len - declared) in
      Buffer.clear t.rx;
      Buffer.add_string t.rx rest;
      Some (Ok msg)
    end

let handle_message t msg =
  match msg with
  | Wire.Open o ->
      t.remote <- Some o;
      event t (Fsm.Open_received o);
      []
  | Wire.Keepalive ->
      event t Fsm.Keepalive_received;
      []
  | Wire.Notification _ ->
      event t Fsm.Notification_received;
      []
  | Wire.Update _ as u ->
      let was_established = Fsm.state t.fsm = Fsm.Established in
      (* Before establishment this is an FSM error; the machine sends a
         notification and tears down. *)
      event t Fsm.Update_received;
      if was_established then Wire.to_updates ~peer:t.peer_asn u else []

let feed t data =
  Buffer.add_bytes t.rx data;
  let rec drain acc =
    match take_message t with
    | None -> Ok (List.rev acc)
    | Some (Error e) ->
        event t Fsm.Manual_stop;
        Error e
    | Some (Ok raw) -> (
        match Wire.decode raw with
        | Error e ->
            event t Fsm.Manual_stop;
            Error e
        | Ok msg -> drain (List.rev_append (handle_message t msg) acc))
  in
  drain []
