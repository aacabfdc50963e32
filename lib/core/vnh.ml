open Sdx_net

type t = {
  pool : Prefix.t;
  size : int;
  mutable next : int;  (* high-water index: [1, next] have been handed out *)
  mutable free_list : int list;  (* reclaimed indices, reused LIFO *)
  free_set : (int, unit) Hashtbl.t;  (* members of [free], for O(1) guards *)
  mutable live_ : int;
  mutable peak_live_ : int;
  mutable reclaimed_ : int;  (* cumulative across resets *)
}

type stats = {
  capacity : int;
  live : int;
  free : int;
  peak_live : int;
  reclaimed_total : int;
}

let create ?(pool = Prefix.of_string "172.16.0.0/12") () =
  let size = 1 lsl (32 - Prefix.length pool) in
  {
    pool;
    size;
    next = 0;
    free_list = [];
    free_set = Hashtbl.create 64;
    live_ = 0;
    peak_live_ = 0;
    reclaimed_ = 0;
  }

(* Index 0 is the network address itself, skipped so a VNH is never
   all-zero in the host part. *)
let pair t i = (Prefix.host t.pool i, Mac.of_int (Mac_space.vmac_base + i))

let took t =
  t.live_ <- t.live_ + 1;
  if t.live_ > t.peak_live_ then t.peak_live_ <- t.live_

let alloc t =
  match t.free_list with
  | i :: rest ->
      t.free_list <- rest;
      Hashtbl.remove t.free_set i;
      took t;
      `Fresh (pair t i)
  | [] ->
      if t.next + 1 >= t.size then `Exhausted
      else begin
        t.next <- t.next + 1;
        took t;
        `Fresh (pair t t.next)
      end

let fresh t =
  match alloc t with
  | `Fresh p -> p
  | `Exhausted -> failwith "Vnh.fresh: pool exhausted"

let is_virtual t ip = Prefix.mem ip t.pool
let index_of t ip = Ipv4.to_int ip - Ipv4.to_int (Prefix.network t.pool)

let release t ip =
  if not (is_virtual t ip) then false
  else
    let i = index_of t ip in
    if i < 1 || i > t.next || Hashtbl.mem t.free_set i then false
    else begin
      t.free_list <- i :: t.free_list;
      Hashtbl.replace t.free_set i ();
      t.live_ <- t.live_ - 1;
      t.reclaimed_ <- t.reclaimed_ + 1;
      true
    end

let allocated t = t.live_
let capacity t = t.size - 1

let pressure t =
  let cap = capacity t in
  if cap <= 0 then 1.0 else float_of_int t.live_ /. float_of_int cap

let reclaimed_total t = t.reclaimed_
let peak_live t = t.peak_live_

let stats t =
  {
    capacity = capacity t;
    live = t.live_;
    free = Hashtbl.length t.free_set;
    peak_live = t.peak_live_;
    reclaimed_total = t.reclaimed_;
  }

let reset t =
  t.next <- 0;
  t.free_list <- [];
  Hashtbl.reset t.free_set;
  t.live_ <- 0

let retain t live =
  let keep = Hashtbl.create 64 in
  List.iter (fun ip -> if is_virtual t ip then Hashtbl.replace keep (index_of t ip) ()) live;
  for i = 1 to t.next do
    if not (Hashtbl.mem keep i) then ignore (release t (fst (pair t i)))
  done
