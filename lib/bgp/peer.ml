(* A queued message: bytes this session encoded and owns, or an
   encoding shared with other sessions, copied when drained. *)
type queued = Own of bytes | Shared of string

type t = {
  local : Wire.open_msg;
  peer_asn : Asn.t;
  fsm : Fsm.t;
  mutable rx : bytes;  (* received bytes not yet framed: a partial message *)
  mutable tx : queued list;  (* reversed output queue *)
  mutable flush : bool;
  mutable remote : Wire.open_msg option;
}

let create ~local ~peer_asn =
  {
    local;
    peer_asn;
    fsm = Fsm.create ();
    rx = Bytes.empty;
    tx = [];
    flush = false;
    remote = None;
  }

let state t = Fsm.state t.fsm
let peer_asn t = t.peer_asn
let remote_open t = t.remote

let transmit t msg = t.tx <- Own (Wire.encode msg) :: t.tx

(* The copy of a shared encoding is made here, not when it is queued:
   queued messages live until the caller drains them, often across a
   whole burst, and a copy per receiver made up front would outlive the
   minor heap and be promoted. *)
let pending_output t =
  let out =
    List.rev_map (function Own b -> b | Shared s -> Bytes.of_string s) t.tx
  in
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
  (* A new transport: bytes left from the old one frame nothing on it,
     and what was queued for the old one must not go out ahead of the
     OPEN. *)
  t.rx <- Bytes.empty;
  t.tx <- [];
  event t Fsm.Manual_start;
  (* The in-memory transport connects instantly. *)
  event t Fsm.Tcp_connected

let keepalive_due t = event t Fsm.Keepalive_timer_expired
let hold_expired t = event t Fsm.Hold_timer_expired

let send_update t update =
  if Fsm.state t.fsm = Fsm.Established then transmit t (Wire.of_update update)

let send_encoded t encoded =
  if Fsm.state t.fsm = Fsm.Established then t.tx <- Shared encoded :: t.tx

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

let length_below_19 =
  { Wire.code = 1; subcode = 2; reason = "declared message length below 19" }

(* Frames every complete message of [rx ^ data] in place, from an
   offset, and keeps only the unconsumed tail: one copy of the bytes per
   call, however many messages they hold.  The declared length lives at
   bytes 16-17 of each header.  An error queues the NOTIFICATION RFC
   4271 §6 asks for (unless the session is already down) and discards
   the buffer: the session is torn down with the transport the bytes
   arrived on. *)
let feed t data =
  let buf = if Bytes.length t.rx = 0 then data else Bytes.cat t.rx data in
  let len = Bytes.length buf in
  let keep pos =
    t.rx <- (if pos = len then Bytes.empty else Bytes.sub buf pos (len - pos))
  in
  let fail (e : Wire.error) =
    t.rx <- Bytes.empty;
    if Fsm.state t.fsm <> Fsm.Idle then
      transmit t (Wire.Notification { code = e.code; subcode = e.subcode });
    event t Fsm.Manual_stop;
    Error e.reason
  in
  let rec drain pos acc =
    if len - pos < 19 then begin
      keep pos;
      Ok (List.rev acc)
    end
    else
      let declared = Bytes.get_uint16_be buf (pos + 16) in
      if declared < 19 then fail length_below_19
      else if len - pos < declared then begin
        keep pos;
        Ok (List.rev acc)
      end
      else
        match Wire.decode_sub buf ~pos ~len:declared with
        | Error e -> fail e
        | Ok msg ->
            drain (pos + declared) (List.rev_append (handle_message t msg) acc)
  in
  drain 0 []
