(* sdx_race: a happens-before race detector behind shims for [Mutex],
   [Atomic] and [Domain].

   The rest of the tree never touches the raw primitives (the
   concurrency lint enforces this); it goes through this module, which
   has three modes:

   - [Off] (production): every wrapper is a direct passthrough.  A
     location created while the detector is off carries no state at
     all, so the hot paths (obs counters, RCU snapshot publication) pay
     one immutable-field load and a branch.

   - [Record]: real domains run for real, and every shim operation
     additionally records vector-clock happens-before edges under one
     detector lock: lock release/acquire, atomic release/acquire
     (modelled conservatively: release edges are recorded before the
     physical store and acquire edges after the physical load, so the
     approximation can only add ordering — the detector never reports
     a false race, it can only miss one), spawn and join edges.
     Explicitly {!Tracked} plain locations are checked on every access:
     a write must happen-after every prior access, a read must
     happen-after every prior write, and a violation is reported with
     the location's allocation site and both access sites.

   - [Model]: the deterministic interleaving explorer ({!Explore}) is
     driving.  Everything runs on one real domain; [Domain.spawn]
     creates a cooperative virtual thread, and every operation on a
     tracked object is a scheduler yield point (declared via an effect
     before it executes, so the scheduler knows each thread's pending
     operation and can prune independent interleavings).  Objects
     created while the detector was off stay invisible: their
     operations neither yield nor record, which keeps incidental
     global state (metric counters, the interning registry) out of the
     model's state space — model scenarios must create the structures
     under test inside the scenario body.

   Thread identity is a small dense index ("tid"): the detector
   registers real domains lazily (and eagerly on [Domain.spawn], which
   is what carries the parent's clock into the child) and virtual
   threads are numbered by the explorer.  All detector state is
   guarded by [master]; in Record mode this serializes instrumented
   operations, which is the usual cost of a software race detector and
   irrelevant to the Off-mode production path. *)

module RMutex = Stdlib.Mutex
module RAtomic = Stdlib.Atomic
module RDomain = Stdlib.Domain

type mode = Off | Record | Model

(* ------------------------------------------------------------------ *)
(* Detector state                                                      *)

let master = RMutex.create ()

let locked f =
  RMutex.lock master;
  match f () with
  | v ->
      RMutex.unlock master;
      v
  | exception e ->
      RMutex.unlock master;
      raise e

let mode_ref = ref Off

(* Bumped on every detector reset ([set_mode], each model execution);
   per-object state carries the session it belongs to and is lazily
   re-initialized when it leaks across sessions (a table created in one
   test must not poison the next test's clocks). *)
let session = ref 1

(* Model-mode scheduler context, maintained by Explore. *)
let model_current = ref (-1)
let model_trace_hook : (unit -> string list) ref = ref (fun () -> [])
let model_done_hook : (int -> bool) ref = ref (fun _ -> true)

(* Thread registry: dense tids, a clock and a name per tid. *)
let clocks = ref (Array.make 8 Vclock.empty)
let names = ref (Array.make 8 "?")
let nthreads = ref 0
let domain_tids : (int, int) Hashtbl.t = Hashtbl.create 16

let ensure_threads n =
  if n > Array.length !clocks then begin
    let size = max n (2 * Array.length !clocks) in
    let c = Array.make size Vclock.empty and nm = Array.make size "?" in
    Array.blit !clocks 0 c 0 !nthreads;
    Array.blit !names 0 nm 0 !nthreads;
    clocks := c;
    names := nm
  end

let new_tid_locked name parent_vc =
  let tid = !nthreads in
  (* grow before bumping the count: [ensure_threads] blits [!nthreads]
     live entries out of the old arrays *)
  ensure_threads (tid + 1);
  incr nthreads;
  (* self component starts at 1 so epoch 0 always means "no access" *)
  !clocks.(tid) <- Vclock.tick parent_vc tid;
  !names.(tid) <- name;
  tid

let current_tid_locked () =
  if !mode_ref = Model && !model_current >= 0 then !model_current
  else begin
    let d = (RDomain.self () :> int) in
    match Hashtbl.find_opt domain_tids d with
    | Some t -> t
    | None ->
        let t = new_tid_locked (Printf.sprintf "domain-%d" d) Vclock.empty in
        Hashtbl.replace domain_tids d t;
        t
  end

let thread_name_locked tid =
  if tid >= 0 && tid < !nthreads then !names.(tid) else Printf.sprintf "t%d" tid

let reset_locked () =
  incr session;
  nthreads := 0;
  Hashtbl.reset domain_tids

(* Location ids: one dense space across mutexes, atomics, tracked
   locations, owners and thread handles, so the explorer's independence
   relation is a plain int comparison. *)
let next_loc = RAtomic.make 1
let fresh_loc () = RAtomic.fetch_and_add next_loc 1

let enabled () = !mode_ref <> Off

(* A trimmed backtrace for attribution: the sanitizer's own frames at
   the top are noise — the reader wants the first frame in user code. *)
let site () =
  let s = Printexc.raw_backtrace_to_string (Printexc.get_callstack 14) in
  let lines = String.split_on_char '\n' s in
  let is_own l =
    let rec has i =
      i + 15 <= String.length l
      && (String.sub l i 15 = "Sdx_sanitize__S" || has (i + 1))
    in
    has 0
  in
  let rec drop = function
    | l :: rest when is_own l -> drop rest
    | rest -> rest
  in
  let kept = drop lines in
  String.trim (String.concat "\n" (if kept = [] then lines else kept))

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type access = { a_tid : int; a_thread : string; a_site : string }

type report = {
  r_kind : string;
  r_location : string;
  r_alloc_site : string;
  r_first : access;
  r_second : access;
  r_trace : string list;  (* model-mode interleaving, oldest first *)
}

let race_buf : report list ref = ref []

let record_report_locked ~kind ~location ~alloc ~first ~second =
  let trace = if !mode_ref = Model then !model_trace_hook () else [] in
  race_buf :=
    {
      r_kind = kind;
      r_location = location;
      r_alloc_site = alloc;
      r_first = first;
      r_second = second;
      r_trace = trace;
    }
    :: !race_buf

let races () = locked (fun () -> List.rev !race_buf)
let clear_races () = locked (fun () -> race_buf := [])

let first_line s = match String.index_opt s '\n' with None -> s | Some i -> String.sub s 0 i

let report_summary r =
  Printf.sprintf "%s on %s: %s (%s) vs %s (%s)" r.r_kind r.r_location
    r.r_first.a_thread
    (first_line r.r_first.a_site)
    r.r_second.a_thread
    (first_line r.r_second.a_site)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_access buf (a : access) =
  Buffer.add_string buf
    (Printf.sprintf "{\"tid\":%d,\"thread\":\"%s\",\"site\":\"%s\"}" a.a_tid
       (json_escape a.a_thread) (json_escape a.a_site))

let reports_json reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"races\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\":\"%s\",\"location\":\"%s\",\"alloc_site\":\"%s\",\"first\":"
           (json_escape r.r_kind) (json_escape r.r_location)
           (json_escape r.r_alloc_site));
      json_of_access buf r.r_first;
      Buffer.add_string buf ",\"second\":";
      json_of_access buf r.r_second;
      Buffer.add_string buf ",\"trace\":[";
      List.iteri
        (fun j s ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape s)))
        r.r_trace;
      Buffer.add_string buf "]}")
    reports;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Model-mode effects: declared here so the wrappers can perform them
   and Explore can handle them without a dependency cycle.             *)

type pending_op = { op_loc : int; op_write : bool; op_desc : string }

type _ Effect.t +=
  | Yield : pending_op -> unit Effect.t
  | Block : pending_op * (unit -> bool) -> unit Effect.t
  | Spawn : string * (unit -> unit) -> int Effect.t

let in_model () = !mode_ref = Model && !model_current >= 0
let model_yield op = if in_model () then Effect.perform (Yield op)

(* ------------------------------------------------------------------ *)
(* Vector-clock edges                                                  *)

(* acquire: the running thread learns everything the location's last
   releaser knew. *)
let acquire_edge_locked vc_of =
  let tid = current_tid_locked () in
  !clocks.(tid) <- Vclock.join !clocks.(tid) (vc_of ());
  tid

(* release: the location learns the thread's clock and the thread
   steps its own component. *)
let release_edge_locked get set =
  let tid = current_tid_locked () in
  set (Vclock.join (get ()) !clocks.(tid));
  !clocks.(tid) <- Vclock.tick !clocks.(tid) tid;
  tid

(* ------------------------------------------------------------------ *)
(* Mutex                                                               *)

module Mutex = struct
  type state = {
    l_id : int;
    l_name : string;
    mutable l_session : int;
    mutable l_vc : Vclock.t;
    mutable l_holder : int;  (* model mode: vthread holding it, -1 free *)
  }

  (* sdx-owner: st is set once, by the holder of rm (see [recorded]). *)
  type t = { rm : RMutex.t; name : string; mutable st : state option }

  let new_state name =
    { l_id = fresh_loc (); l_name = name; l_session = !session; l_vc = Vclock.empty; l_holder = -1 }

  let create ?(name = "mutex") () =
    { rm = RMutex.create (); name; st = (if enabled () then Some (new_state name) else None) }

  let fresh st =
    if st.l_session <> !session then begin
      st.l_session <- !session;
      st.l_vc <- Vclock.empty;
      st.l_holder <- -1
    end

  (* The state to record edges on, for a caller holding [rm].  A mutex
     created while the detector was off gets its state on its first
     recorded operation: a lock created before recording began (the
     metrics registry's, made at module initialisation) must still
     order the accesses it guards once recording is on.  Model mode
     leaves such mutexes invisible. *)
  let recorded t =
    match t.st with
    | None when !mode_ref = Record ->
        let st = new_state t.name in
        t.st <- Some st;
        t.st
    | st -> st

  let lock t =
    match t.st with
    | Some st when in_model () ->
        model_yield { op_loc = st.l_id; op_write = true; op_desc = "lock " ^ st.l_name };
        locked (fun () -> fresh st);
        if st.l_holder >= 0 then
          Effect.perform
            (Block
               ( { op_loc = st.l_id; op_write = true; op_desc = "lock(blocked) " ^ st.l_name },
                 fun () -> st.l_holder < 0 ));
        locked (fun () ->
            st.l_holder <- current_tid_locked ();
            ignore (acquire_edge_locked (fun () -> st.l_vc)))
    | _ when !mode_ref = Off -> RMutex.lock t.rm
    | _ -> (
        RMutex.lock t.rm;
        match recorded t with
        | None -> ()
        | Some st ->
            locked (fun () ->
                fresh st;
                ignore (acquire_edge_locked (fun () -> st.l_vc))))

  let unlock t =
    match t.st with
    | Some st when in_model () ->
        model_yield { op_loc = st.l_id; op_write = true; op_desc = "unlock " ^ st.l_name };
        locked (fun () ->
            fresh st;
            ignore (release_edge_locked (fun () -> st.l_vc) (fun vc -> st.l_vc <- vc));
            st.l_holder <- -1)
    | _ when !mode_ref = Off -> RMutex.unlock t.rm
    | _ ->
        (match recorded t with
        | None -> ()
        | Some st ->
            locked (fun () ->
                fresh st;
                ignore (release_edge_locked (fun () -> st.l_vc) (fun vc -> st.l_vc <- vc))));
        RMutex.unlock t.rm

  let protect t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

(* ------------------------------------------------------------------ *)
(* Atomic                                                              *)

module Atomic = struct
  type state = {
    at_id : int;
    at_name : string;
    mutable at_session : int;
    mutable at_vc : Vclock.t;
  }

  type 'a t = { ra : 'a RAtomic.t; st : state option }

  let make ?(name = "atomic") v =
    let st =
      if enabled () then Some { at_id = fresh_loc (); at_name = name; at_session = !session; at_vc = Vclock.empty }
      else None
    in
    { ra = RAtomic.make v; st }

  let fresh st = if st.at_session <> !session then begin st.at_session <- !session; st.at_vc <- Vclock.empty end

  let pre_release st =
    locked (fun () ->
        fresh st;
        ignore (release_edge_locked (fun () -> st.at_vc) (fun vc -> st.at_vc <- vc)))

  let post_acquire st =
    locked (fun () ->
        fresh st;
        ignore (acquire_edge_locked (fun () -> st.at_vc)))

  let tracked_op st ~write ~desc f =
    if in_model () then begin
      model_yield { op_loc = st.at_id; op_write = write; op_desc = desc ^ " " ^ st.at_name };
      (* single real domain: edge-vs-store ordering is immaterial here *)
      if write then pre_release st;
      let r = f () in
      if not write then post_acquire st else post_acquire st;
      r
    end
    else begin
      (* release edges recorded before the physical store, acquire edges
         after the physical load: the approximation can only add
         happens-before, never invent a race *)
      if write then pre_release st;
      let r = f () in
      post_acquire st;
      r
    end

  let get t =
    match t.st with
    | None -> RAtomic.get t.ra
    | Some st when !mode_ref = Off -> ignore st; RAtomic.get t.ra
    | Some st -> tracked_op st ~write:false ~desc:"get" (fun () -> RAtomic.get t.ra)

  let set t v =
    match t.st with
    | None -> RAtomic.set t.ra v
    | Some st when !mode_ref = Off -> ignore st; RAtomic.set t.ra v
    | Some st -> tracked_op st ~write:true ~desc:"set" (fun () -> RAtomic.set t.ra v)

  let exchange t v =
    match t.st with
    | None -> RAtomic.exchange t.ra v
    | Some st when !mode_ref = Off -> ignore st; RAtomic.exchange t.ra v
    | Some st -> tracked_op st ~write:true ~desc:"exchange" (fun () -> RAtomic.exchange t.ra v)

  let compare_and_set t old v =
    match t.st with
    | None -> RAtomic.compare_and_set t.ra old v
    | Some st when !mode_ref = Off -> ignore st; RAtomic.compare_and_set t.ra old v
    | Some st ->
        tracked_op st ~write:true ~desc:"cas" (fun () -> RAtomic.compare_and_set t.ra old v)

  let fetch_and_add t n =
    match t.st with
    | None -> RAtomic.fetch_and_add t.ra n
    | Some st when !mode_ref = Off -> ignore st; RAtomic.fetch_and_add t.ra n
    | Some st ->
        tracked_op st ~write:true ~desc:"fetch_and_add" (fun () -> RAtomic.fetch_and_add t.ra n)

  let incr t = ignore (fetch_and_add t 1)
end

(* ------------------------------------------------------------------ *)
(* Tracked plain locations                                             *)

module Tracked = struct
  type t = {
    tr_id : int;
    tr_name : string;
    tr_alloc : string;
    mutable tr_session : int;
    mutable tr_w : int array;  (* per-tid epoch of last write, 0 = none *)
    mutable tr_r : int array;
    mutable tr_wsite : string array;
    mutable tr_rsite : string array;
    mutable tr_reports : int;
  }

  let max_reports_per_location = 8

  let create name =
    let alloc = if enabled () then site () else "" in
    {
      tr_id = fresh_loc ();
      tr_name = name;
      tr_alloc = alloc;
      tr_session = !session;
      tr_w = [||];
      tr_r = [||];
      tr_wsite = [||];
      tr_rsite = [||];
      tr_reports = 0;
    }

  let fresh tr n =
    if tr.tr_session <> !session then begin
      tr.tr_session <- !session;
      tr.tr_w <- [||];
      tr.tr_r <- [||];
      tr.tr_wsite <- [||];
      tr.tr_rsite <- [||];
      tr.tr_reports <- 0
    end;
    if Array.length tr.tr_w < n then begin
      let grow a v =
        let out = Array.make n v in
        Array.blit a 0 out 0 (Array.length a);
        out
      in
      tr.tr_w <- grow tr.tr_w 0;
      tr.tr_r <- grow tr.tr_r 0;
      tr.tr_wsite <- grow tr.tr_wsite "";
      tr.tr_rsite <- grow tr.tr_rsite ""
    end

  let report_locked tr ~kind ~u ~usite ~tid ~here =
    if tr.tr_reports < max_reports_per_location then begin
      tr.tr_reports <- tr.tr_reports + 1;
      record_report_locked ~kind ~location:tr.tr_name ~alloc:tr.tr_alloc
        ~first:{ a_tid = u; a_thread = thread_name_locked u; a_site = usite }
        ~second:{ a_tid = tid; a_thread = thread_name_locked tid; a_site = here }
    end

  let access tr ~write =
    let here = site () in
    locked (fun () ->
        let tid = current_tid_locked () in
        fresh tr !nthreads;
        let vc = !clocks.(tid) in
        let n = Array.length tr.tr_w in
        for u = 0 to n - 1 do
          if u <> tid then begin
            if tr.tr_w.(u) > 0 && tr.tr_w.(u) > Vclock.get vc u then
              report_locked tr
                ~kind:(if write then "write-write race" else "write-read race")
                ~u ~usite:tr.tr_wsite.(u) ~tid ~here
            else if write && tr.tr_r.(u) > 0 && tr.tr_r.(u) > Vclock.get vc u then
              report_locked tr ~kind:"read-write race" ~u ~usite:tr.tr_rsite.(u) ~tid ~here
          end
        done;
        if write then begin
          tr.tr_w.(tid) <- Vclock.get vc tid;
          tr.tr_wsite.(tid) <- here
        end
        else begin
          tr.tr_r.(tid) <- Vclock.get vc tid;
          tr.tr_rsite.(tid) <- here
        end)

  let op tr ~write ~desc =
    if !mode_ref = Off then ()
    else begin
      model_yield { op_loc = tr.tr_id; op_write = write; op_desc = desc ^ " " ^ tr.tr_name };
      access tr ~write
    end

  let read tr = op tr ~write:false ~desc:"read"
  let write tr = op tr ~write:true ~desc:"write"
end

(* ------------------------------------------------------------------ *)
(* Single-writer ownership assertions                                  *)

module Owner = struct
  type t = {
    o_id : int;
    o_name : string;
    mutable o_session : int;
    mutable o_tid : int;
    mutable o_site : string;
  }

  let create name = { o_id = fresh_loc (); o_name = name; o_session = !session; o_tid = -1; o_site = "" }

  (* Binds to the first asserting thread of the detector session; any
     other thread asserting afterwards is a single-writer contract
     violation, reported like a race (the "first access" is the
     binding site). *)
  let assert_owner o =
    if !mode_ref <> Off then begin
      model_yield { op_loc = o.o_id; op_write = true; op_desc = "owner " ^ o.o_name };
      let here = site () in
      locked (fun () ->
          let tid = current_tid_locked () in
          if o.o_session <> !session then begin
            o.o_session <- !session;
            o.o_tid <- -1;
            o.o_site <- ""
          end;
          if o.o_tid < 0 then begin
            o.o_tid <- tid;
            o.o_site <- here
          end
          else if o.o_tid <> tid then
            record_report_locked ~kind:"single-writer violation" ~location:o.o_name
              ~alloc:""
              ~first:{ a_tid = o.o_tid; a_thread = thread_name_locked o.o_tid; a_site = o.o_site }
              ~second:{ a_tid = tid; a_thread = thread_name_locked tid; a_site = here })
    end
end

(* ------------------------------------------------------------------ *)
(* Domain                                                              *)

(* One shared location id standing for "the thread table": every spawn
   and join conflicts with every other, which is conservative and keeps
   the explorer's pending-op relation simple. *)
let threads_loc = fresh_loc ()

module Domain = struct
  type 'a t =
    | H_real of 'a RDomain.t * Vclock.t option ref
    | H_virtual of int * 'a option ref

  let spawn ?(name = "worker") f =
    match !mode_ref with
    | Off -> H_real (RDomain.spawn f, ref None)
    | Record ->
        let parent_vc =
          locked (fun () ->
              let tid = current_tid_locked () in
              let vc = !clocks.(tid) in
              !clocks.(tid) <- Vclock.tick vc tid;
              vc)
        in
        let fin = ref None in
        H_real
          ( RDomain.spawn (fun () ->
                locked (fun () ->
                    let d = (RDomain.self () :> int) in
                    Hashtbl.replace domain_tids d (new_tid_locked name parent_vc));
                let r = f () in
                locked (fun () ->
                    let tid = current_tid_locked () in
                    fin := Some !clocks.(tid));
                r),
            fin )
    | Model ->
        model_yield { op_loc = threads_loc; op_write = true; op_desc = "spawn " ^ name };
        let cell = ref None in
        let parent = !model_current in
        let child = Effect.perform (Spawn (name, fun () -> cell := Some (f ()))) in
        locked (fun () ->
            !clocks.(child) <- Vclock.join !clocks.(child) !clocks.(parent);
            !clocks.(parent) <- Vclock.tick !clocks.(parent) parent);
        H_virtual (child, cell)

  let join (h : 'a t) : 'a =
    match h with
    | H_real (d, fin) ->
        let r = RDomain.join d in
        (if !mode_ref = Record then
           locked (fun () ->
               match !fin with
               | Some vc ->
                   let tid = current_tid_locked () in
                   !clocks.(tid) <- Vclock.join !clocks.(tid) vc
               | None -> ()));
        r
    | H_virtual (id, cell) ->
        model_yield { op_loc = threads_loc; op_write = true; op_desc = Printf.sprintf "join t%d" id };
        if not (!model_done_hook id) then
          Effect.perform
            (Block
               ( { op_loc = threads_loc; op_write = true; op_desc = Printf.sprintf "join(blocked) t%d" id },
                 fun () -> !model_done_hook id ));
        locked (fun () ->
            let tid = current_tid_locked () in
            !clocks.(tid) <- Vclock.join !clocks.(tid) !clocks.(id));
        (match !cell with
        | Some r -> r
        | None -> failwith "Sync.Domain.join: virtual thread died without a result")

  let self_index () = locked current_tid_locked
  let recommended_count () = RDomain.recommended_domain_count ()
end

(* ------------------------------------------------------------------ *)
(* Mode control & the Model-side hooks Explore drives                  *)

let mode () = !mode_ref

let set_mode m =
  locked (fun () ->
      mode_ref := m;
      if m <> Off then reset_locked ())

module Model = struct
  let begin_execution () =
    locked (fun () ->
        reset_locked ();
        let t0 = new_tid_locked "main" Vclock.empty in
        assert (t0 = 0));
    model_current := 0

  let new_vthread name = locked (fun () -> new_tid_locked name Vclock.empty)
  let set_current tid = model_current := tid
  let clear_current () = model_current := -1
  let set_trace_hook f = model_trace_hook := f
  let set_done_hook f = model_done_hook := f
end

(* ------------------------------------------------------------------ *)
(* Env-var activation: SDX_RACE=1 turns Record mode on from process
   start (so every location in the process is tracked), and the exit
   hook makes any findings loud and, with SDX_RACE_REPORT=path, durable
   — CI uploads that file as an artifact.                              *)

let () =
  match Sys.getenv_opt "SDX_RACE" with
  | Some ("1" | "on" | "true" | "record") ->
      mode_ref := Record;
      at_exit (fun () ->
          let rs = races () in
          if rs <> [] then begin
            Printf.eprintf "sdx_race: %d race report(s):\n" (List.length rs);
            List.iter (fun r -> Printf.eprintf "  %s\n" (report_summary r)) rs;
            match Sys.getenv_opt "SDX_RACE_REPORT" with
            | Some path ->
                let oc = open_out path in
                output_string oc (reports_json rs);
                close_out oc;
                Printf.eprintf "sdx_race: wrote %s\n" path
            | None -> ()
          end)
  | _ -> ()
