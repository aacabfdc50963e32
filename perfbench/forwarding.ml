(* The packet path: pre-built frames walked through the committed
   edge/core fabric.  Phase 1 runs [Fabric.process] on the owning domain
   (live tables, hit counters, consistency monitor); phase 2 runs one
   [Fabric.reader] on this domain and one on a second domain over one
   [Fabric.snapshots].  Every pass walks the whole frame vector, so the
   passes of a phase are identical work and each is timed on its own. *)

open Sdx_net
module Fabric = Sdx_fabric.Fabric
module Topology = Sdx_fabric.Topology
module Table = Sdx_openflow.Table
module Switch = Sdx_openflow.Switch
module Sync = Sdx_sanitize.Sync

(* A pass is timed in chunks of this many frames, too: enough frames
   that every chunk spans at least one minor collection (a frame
   allocates over a hundred words), few enough that a chunk fits in a
   short fast stretch of a shared host. *)
let chunk = 2_000

type passes = {
  frames : int;  (** frames per pass *)
  times : float list;  (** seconds of each pass, most recent first *)
  chunk_best : float array;  (** shortest time of each chunk over the passes *)
  minor_words : float;
}

let no_passes = { frames = 0; times = []; chunk_best = [||]; minor_words = 0.0 }

let merge a b =
  {
    frames = b.frames;
    times = b.times @ a.times;
    chunk_best =
      (if a.chunk_best = [||] then b.chunk_best
       else Array.map2 Float.min a.chunk_best b.chunk_best);
    minor_words = a.minor_words +. b.minor_words;
  }

(* [count] passes of [f] over frame indices [0, n); one span per pass. *)
let passes ~sp ~name ~count n f =
  let words0 = Gc.minor_words () in
  let best = Array.make ((n + chunk - 1) / chunk) infinity in
  let times = ref [] in
  for _ = 1 to count do
    let t0 = Common.now () in
    Spans.new_trace sp;
    Spans.with_span sp name (fun () ->
        Array.iteri
          (fun c b ->
            let c0 = Common.now () in
            for i = c * chunk to min n ((c + 1) * chunk) - 1 do
              f i
            done;
            best.(c) <- Float.min b (Common.now () -. c0))
          best);
    times := (Common.now () -. t0) :: !times
  done;
  { frames = n; times = !times; chunk_best = best; minor_words = Gc.minor_words () -. words0 }

let walked p = p.frames * List.length p.times
let wall_s p = Common.sum p.times

(* A pass with every chunk at its best: identical work from the first
   pass to the last, so one sample of a chunk in a fast stretch of the
   host suffices. *)
let best_pass_s p = Common.sum (Array.to_list p.chunk_best)

(* Frames per second at the median pass. *)
let median_rate p = float_of_int p.frames /. Common.median p.times

let process_phase ~sp ~count (t : Sut.t) frames =
  passes ~sp ~name:"fabric.process" ~count (Array.length frames) (fun i ->
      ignore (Fabric.process t.fab frames.(i)))

(* One reader over a snapshot on this domain only. *)
let reader_phase ~sp ~count snap frames =
  let read = Fabric.reader snap in
  passes ~sp ~name:"fabric.reader" ~count (Array.length frames) (fun i ->
      ignore (read frames.(i)))

(* Two readers over one snapshot: this domain plus one spawned domain,
   each timing its own passes.  The aggregate rate is the sum of the two
   readers' median rates. *)
let two_reader_rate ~count snap frames =
  let worker () =
    let read = Fabric.reader snap in
    passes ~sp:(Spans.create ~enabled:false) ~name:"fabric.reader" ~count
      (Array.length frames) (fun i -> ignore (read frames.(i)))
  in
  let other = Sync.Domain.spawn ~name:"reader" worker in
  let mine = worker () in
  median_rate mine +. median_rate (Sync.Domain.join other)

(* The ingress edge's table alone, through [Table.searcher] over its
   snapshot: the first-match engine without the fabric walk. *)
let edge_searchers (t : Sut.t) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let snap = Table.snapshot (Switch.table (Fabric.switch t.fab s) 0) in
      Hashtbl.replace tbl s (snap, Table.searcher snap))
    (Topology.edge_switches t.topo);
  fun (f : Packet.t) ->
    match Topology.home_of_port t.topo f.port with
    | Some s -> Hashtbl.find tbl s
    | None -> invalid_arg "frame not located at a physical port"

let edge_lookup_phase ~sp ~count (t : Sut.t) frames =
  let ingress = edge_searchers t in
  let find = Array.map (fun f -> snd (ingress f)) frames in
  passes ~sp ~name:"table.edge_lookup" ~count (Array.length frames) (fun i ->
      ignore (find.(i) frames.(i)))

type engine = { shapes : int; exact : int; prefix : int; residual : int }

let engine_stats (t : Sut.t) =
  List.fold_left
    (fun e s ->
      let st = Table.engine_stats (Switch.table (Fabric.switch t.fab s) 0) in
      {
        shapes = e.shapes + st.exact_shapes;
        exact = e.exact + st.exact_entries;
        prefix = e.prefix + st.prefix_entries;
        residual = e.residual + st.residual_entries;
      })
    { shapes = 0; exact = 0; prefix = 0; residual = 0 }
    (Fabric.switches t.fab)

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

type verdict = { compared : int; mismatches : int; engine_mismatches : int }

(* Deliveries through the edge/core fabric (live walk and snapshot
   reader) must equal the single-switch layout's on a sample, and each
   ingress searcher must agree with its snapshot's linear scan. *)
let verify (t : Sut.t) frames ~sample =
  let single = Fabric.create (Topology.single ~ports:(Sut.ports_of t.w)) in
  ignore (Fabric.commit single (Sdx_core.Runtime.flows t.rt));
  let oracle = Fabric.reader (Fabric.snapshots single) in
  let read = Fabric.reader (Fabric.snapshots t.fab) in
  let ingress = edge_searchers t in
  let n = min sample (Array.length frames) in
  let mismatches = ref 0 and engine_mismatches = ref 0 in
  for i = 0 to n - 1 do
    let f = frames.(i) in
    let expect = Sut.canon (oracle f) in
    if Sut.canon (Fabric.process t.fab f) <> expect || Sut.canon (read f) <> expect then
      incr mismatches;
    let snap, find = ingress f in
    if find f <> Table.snapshot_linear snap f then incr engine_mismatches
  done;
  { compared = n; mismatches = !mismatches; engine_mismatches = !engine_mismatches }
