(* In-memory causal spans recorded around the benchmark's own calls into
   each layer.  A span has a name, start, end, parent and trace id (one
   trace per update burst or forwarding pass); they are kept in memory
   and written out as JSON lines when the run ends.  With tracing off
   every entry point is a direct call. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  trace_id : int;
  name : string;
  start : float;
  stop : float;
  attrs : (string * float) list;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** most recent first *)
  mutable next_id : int;
  mutable open_ids : int list;  (** innermost first *)
  mutable trace_id : int;
}

let create ~enabled =
  { enabled; spans = []; next_id = 1; open_ids = []; trace_id = 0 }

let new_trace t = t.trace_id <- t.trace_id + 1

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.open_ids with p :: _ -> p | [] -> 0

(* Records an already-timed interval as a child of the innermost open
   span (the fabric's phase windows, delimited by [on_phase]). *)
let record t name ~start ~stop =
  if t.enabled then
    t.spans <-
      {
        id = fresh_id t;
        parent = current t;
        trace_id = t.trace_id;
        name;
        start;
        stop;
        attrs = [];
      }
      :: t.spans

let with_span ?(attrs = fun _ -> []) t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t and parent = current t in
    t.open_ids <- id :: t.open_ids;
    let start = Common.now () in
    let close r =
      t.open_ids <- List.tl t.open_ids;
      t.spans <-
        {
          id;
          parent;
          trace_id = t.trace_id;
          name;
          start;
          stop = Common.now ();
          attrs = attrs r;
        }
        :: t.spans
    in
    match f () with
    | r ->
        close (Some r);
        r
    | exception e ->
        close None;
        raise e
  end

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

type summary = { calls : int; total_s : float; self_s : float }

(* Self time: a span's duration minus the part of it its children
   cover (children never overlap: every call here is sequential). *)
let self_times t =
  let child_s = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_s s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_s s.parent) ~default:0.0))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value (Hashtbl.find_opt child_s s.id) ~default:0.0 in
      let prev =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace by_name s.name
        {
          calls = prev.calls + 1;
          total_s = prev.total_s +. duration s;
          self_s = prev.self_s +. self;
        })
    t.spans;
  List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq by_name))

(* Time covered by the children of the given root spans. *)
let covered_by_children t ~root =
  let roots = Hashtbl.create 256 in
  List.iter (fun s -> if s.name = root then Hashtbl.replace roots s.id ()) t.spans;
  List.fold_left
    (fun acc s -> if Hashtbl.mem roots s.parent then acc +. duration s else acc)
    0.0 t.spans

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) t.spans

let attr_sum t name key =
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc +. Option.value (List.assoc_opt key s.attrs) ~default:0.0
      else acc)
    0.0 t.spans

let json_of_span s =
  Common.json_object
    ([
       ("name", Common.json_string s.name);
       ("id", string_of_int s.id);
       ("parent", string_of_int s.parent);
       ("trace_id", string_of_int s.trace_id);
       ("start", Common.json_number s.start);
       ("end", Common.json_number s.stop);
     ]
    @ List.map (fun (k, v) -> (k, Common.json_number v)) s.attrs)

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (json_of_span s);
          output_char oc '\n')
        (spans t))
