(* A minimal fixed-size domain pool built on the [Sync] sanitizer shim
   over stdlib [Domain], [Mutex] and [Condition].

   Workers block on a shared task queue.  [map] enqueues one task per
   input element and the submitting domain drains the queue alongside
   the workers, so a pool of size [n] keeps [n] domains busy while only
   [n - 1] are spawned.  Each task writes its result into a slot indexed
   by input position, which makes [map] order-preserving no matter which
   domain finishes first.

   Every synchronization primitive goes through [Sync] so that under
   SDX_RACE=1 the pool's happens-before edges are recorded, and under
   the model explorer its operations become deterministic scheduling
   points.  The [queue] and [stopped] fields are registered as tracked
   locations: both are guarded by [mutex], and the tracker proves it —
   dropping a lock anywhere on their access paths surfaces as a
   write/write or write/read race (the seeded-mutation suite checks
   exactly that). *)

module Sync = Sdx_sanitize.Sync

type t = {
  size : int;
  mutex : Sync.Mutex.t;
  pending : Sync.Condition.t;
  queue : (unit -> unit) Queue.t;
  queue_tr : Sync.Tracked.t;  (* every Queue.add/take on [queue] *)
  stopped_tr : Sync.Tracked.t;
  (* sdx-owner: stopped is written only in [shutdown] and read in the
     worker loop, both under [mutex]; tracked via [stopped_tr]. *)
  mutable stopped : bool;
  (* sdx-owner: workers is written by the creating thread in [create]
     and [shutdown] only; never touched from worker domains. *)
  mutable workers : unit Sync.Domain.t list;
}

let rec worker t =
  Sync.Mutex.lock t.mutex;
  let rec next () =
    Sync.Tracked.read t.stopped_tr;
    if t.stopped then None
    else begin
      Sync.Tracked.write t.queue_tr;
      match Queue.take_opt t.queue with
      | Some _ as task -> task
      | None ->
          Sync.Condition.wait t.pending t.mutex;
          next ()
    end
  in
  let task = next () in
  Sync.Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      task ();
      worker t

let create ~domains =
  let size = max 1 domains in
  let t =
    {
      size;
      mutex = Sync.Mutex.create ~name:"Parallel.pool" ();
      pending = Sync.Condition.create ~name:"Parallel.pending" ();
      queue = Queue.create ();
      queue_tr = Sync.Tracked.create "Parallel.queue";
      stopped_tr = Sync.Tracked.create "Parallel.stopped";
      stopped = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (size - 1) (fun _ ->
        Sync.Domain.spawn ~name:"pool-worker" (fun () -> worker t));
  t

let shutdown t =
  Sync.Mutex.lock t.mutex;
  Sync.Tracked.write t.stopped_tr;
  t.stopped <- true;
  Sync.Condition.broadcast t.pending;
  Sync.Mutex.unlock t.mutex;
  List.iter Sync.Domain.join t.workers;
  t.workers <- []

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

type 'b cell = Pending | Done of 'b | Failed of exn

(* Run [task lo hi] over a partition of [0, n) into contiguous chunks, a
   few per domain, instead of one task per element: queue traffic (two
   lock acquisitions per task) is paid per chunk, and adjacent elements —
   which tend to share memoizable structure, like a clause's run of
   prefix groups — stay on the same domain and hit its caches.  The
   submitting domain drains the queue alongside the workers, then waits
   out chunks still running elsewhere.  Callers arrange that each index
   is written by exactly one domain and only read after this returns, so
   result arrays need no lock (and are deliberately not tracked: their
   per-slot disjoint writes would alias to one location). *)
let run_chunks t n task =
  let chunks = min n (8 * t.size) in
  let remaining = ref chunks in
  let remaining_tr = Sync.Tracked.create "Parallel.run_chunks.remaining" in
  let batch_mutex = Sync.Mutex.create ~name:"Parallel.batch" () in
  let batch_done = Sync.Condition.create ~name:"Parallel.batch_done" () in
  let job lo hi () =
    task lo hi;
    Sync.Mutex.lock batch_mutex;
    Sync.Tracked.write remaining_tr;
    decr remaining;
    if !remaining = 0 then Sync.Condition.broadcast batch_done;
    Sync.Mutex.unlock batch_mutex
  in
  Sync.Mutex.lock t.mutex;
  Sync.Tracked.write t.queue_tr;
  for c = 0 to chunks - 1 do
    Queue.add (job (c * n / chunks) ((c + 1) * n / chunks)) t.queue
  done;
  Sync.Condition.broadcast t.pending;
  Sync.Mutex.unlock t.mutex;
  (* The submitter works too... *)
  let rec help () =
    Sync.Mutex.lock t.mutex;
    Sync.Tracked.write t.queue_tr;
    let job = Queue.take_opt t.queue in
    Sync.Mutex.unlock t.mutex;
    match job with
    | Some job ->
        job ();
        help ()
    | None -> ()
  in
  help ();
  (* ...then waits out tasks still running on other domains. *)
  Sync.Mutex.lock batch_mutex;
  Sync.Tracked.read remaining_tr;
  while !remaining > 0 do
    Sync.Condition.wait batch_done batch_mutex;
    Sync.Tracked.read remaining_tr
  done;
  Sync.Mutex.unlock batch_mutex

let collect results =
  Array.map
    (function Done v -> v | Failed e -> raise e | Pending -> assert false)
    results

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.size <= 1 -> List.map f xs
  | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n Pending in
      run_chunks t n (fun lo hi ->
          for i = lo to hi - 1 do
            results.(i) <- (try Done (f arr.(i)) with e -> Failed e)
          done);
      Array.to_list (collect results)

let map_array t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if n = 1 || t.size <= 1 then Array.map f xs
  else begin
    let results = Array.make n Pending in
    run_chunks t n (fun lo hi ->
        for i = lo to hi - 1 do
          results.(i) <- (try Done (f xs.(i)) with e -> Failed e)
        done);
    collect results
  end

let default_domains () =
  match Option.bind (Sys.getenv_opt "SDX_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> Sync.Domain.recommended_count ()
