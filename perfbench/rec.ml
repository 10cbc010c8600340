(* Measurement plumbing for the benchmark: growable sample vectors,
   percentiles, per-second windows, and the benchmark's own span
   recorder (spans live in memory and are written out once, at the end
   of a traced run). Nothing here calls into segdb. *)

external now_ns : unit -> int = "segbench_now_ns" [@@noalloc]

(* ---------------- samples ---------------- *)

(* Stored outside the OCaml heap (a Bigarray), so that recording a
   run's samples neither grows the heap that peak_heap_mb reports nor
   gives the collector more to scan. *)
module Vec = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout 4096; n = 0 }

  let push v x =
    if v.n = Array1.dim v.a then begin
      let b = Array1.create int c_layout (2 * v.n) in
      Array1.blit v.a (Array1.sub b 0 v.n);
      v.a <- b
    end;
    Array1.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.{i}
  let set v i x = v.a.{i} <- x
  let sub v pos len = Array.init len (fun i -> v.a.{pos + i})
  let to_array v = sub v 0 v.n
end

(* Nearest-rank percentile of an unsorted sample; nan when empty. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    float_of_int s.(max 0 (min (n - 1) k))

let percentile a p =
  let s = Array.copy a in
  Array.sort compare s;
  percentile_sorted s p

(* Nearest-rank quantile of a float sample; nan when empty. *)
let quantile_f l p =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median_f l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* ---------------- timed windows ---------------- *)

(* One closed-loop measuring window. Latencies are in ns, in query
   order; [ends] holds the completion time of every operation, so
   throughput can be cut into slices afterwards. *)
type window = {
  q_lat : Vec.t;
  w_lat : Vec.t;
  ends : Vec.t;
  mutable attempted : int;
  mutable failed : int;
  mutable t0 : int;
  mutable t1 : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let new_window () =
  {
    q_lat = Vec.create ();
    w_lat = Vec.create ();
    ends = Vec.create ();
    attempted = 0;
    failed = 0;
    t0 = 0;
    t1 = 0;
    minor_gcs = 0;
    major_gcs = 0;
  }

(* Runs [step w k] for k = first, first+1, ... until [seconds] have
   passed and at least [min_ops] operations are done. Returns the
   window and the next operation index. *)
let run_window ~seconds ~min_ops ~first step =
  let w = new_window () in
  let g0 = Gc.quick_stat () in
  w.t0 <- now_ns ();
  let deadline = w.t0 + int_of_float (seconds *. 1e9) in
  let k = ref first in
  while !k - first < min_ops || now_ns () < deadline do
    step w !k;
    incr k
  done;
  w.t1 <- now_ns ();
  let g1 = Gc.quick_stat () in
  w.minor_gcs <- g1.minor_collections - g0.minor_collections;
  w.major_gcs <- g1.major_collections - g0.major_collections;
  (w, !k)

let seconds_of w = float_of_int (w.t1 - w.t0) /. 1e9

(* The window cut into slices: of [rate_ops] consecutive operations for
   rates, and of [lat_ops] consecutive queries for latency percentiles.
   Returns the per-slice rates (ops/s), query p50s and query p99s (ns). *)
let slices ~rate_ops ~lat_ops w =
  let rates = ref [] in
  let n = Vec.length w.ends in
  let i = ref rate_ops in
  while !i <= n do
    let t_first = if !i = rate_ops then w.t0 else Vec.get w.ends (!i - rate_ops - 1) in
    let dt = Vec.get w.ends (!i - 1) - t_first in
    rates := float_of_int rate_ops /. (float_of_int (max 1 dt) /. 1e9) :: !rates;
    i := !i + rate_ops
  done;
  let p50s = ref [] and p99s = ref [] in
  let j = ref 0 in
  while !j + lat_ops <= Vec.length w.q_lat do
    let s = Vec.sub w.q_lat !j lat_ops in
    Array.sort compare s;
    p50s := percentile_sorted s 0.5 :: !p50s;
    p99s := percentile_sorted s 0.99 :: !p99s;
    j := !j + lat_ops
  done;
  (List.rev !rates, List.rev !p50s, List.rev !p99s)

(* ---------------- spans ---------------- *)

(* A span: name, start, end, parent span (or -1) and the request id
   shared by the spans of one operation. Stored column-wise in growable
   vectors so recording costs two clock reads and a few stores. *)
module Spans = struct
  type t = {
    mutable names : string array;
    name_ids : (string, int) Hashtbl.t;
    name : Vec.t;
    start : Vec.t;
    stop : Vec.t;
    parent : Vec.t;
    rid : Vec.t;
  }

  let create () =
    {
      names = [||];
      name_ids = Hashtbl.create 16;
      name = Vec.create ();
      start = Vec.create ();
      stop = Vec.create ();
      parent = Vec.create ();
      rid = Vec.create ();
    }

  let name_id t s =
    match Hashtbl.find_opt t.name_ids s with
    | Some i -> i
    | None ->
        let i = Array.length t.names in
        t.names <- Array.append t.names [| s |];
        Hashtbl.add t.name_ids s i;
        i

  (* [span t ~rid ~parent name f] runs [f id] inside a new span; [id]
     is the parent to give nested spans. *)
  let span t ~rid ~parent name f =
    let id = Vec.length t.name in
    Vec.push t.name (name_id t name);
    Vec.push t.parent parent;
    Vec.push t.rid rid;
    Vec.push t.start (now_ns ());
    Vec.push t.stop 0;
    let r = f id in
    Vec.set t.stop id (now_ns ());
    r

  let count t = Vec.length t.name

  (* Self time: duration minus the time covered by direct children
     (children of one span never overlap: the benchmark is one
     thread of control per operation). *)
  let self_times t =
    let n = count t in
    let cover = Array.make n 0 in
    for i = 0 to n - 1 do
      let p = Vec.get t.parent i in
      if p >= 0 then cover.(p) <- cover.(p) + (Vec.get t.stop i - Vec.get t.start i)
    done;
    Array.init n (fun i -> Vec.get t.stop i - Vec.get t.start i - cover.(i))

  let durations_of t name =
    match Hashtbl.find_opt t.name_ids name with
    | None -> [||]
    | Some id ->
        let acc = Vec.create () in
        for i = 0 to count t - 1 do
          if Vec.get t.name i = id then Vec.push acc (Vec.get t.stop i - Vec.get t.start i)
        done;
        Vec.to_array acc

  (* Per span name: count, median duration and mean self time (µs). *)
  let summary t =
    let self = self_times t in
    Array.to_list
      (Array.mapi
         (fun id nm ->
           let d = Vec.create () and s = ref 0 and c = ref 0 in
           for i = 0 to count t - 1 do
             if Vec.get t.name i = id then begin
               Vec.push d (Vec.get t.stop i - Vec.get t.start i);
               s := !s + self.(i);
               incr c
             end
           done;
           ( nm,
             !c,
             percentile (Vec.to_array d) 0.5 /. 1e3,
             float_of_int !s /. float_of_int (max 1 !c) /. 1e3 ))
         t.names)

  (* One JSON object per line: name, start/end (ns), parent index, rid;
     at most [limit] spans, the earliest. *)
  let write ?(limit = 100_000) t path =
    let oc = open_out path in
    for i = 0 to min limit (count t) - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"rid\":%d}\n" i
        t.names.(Vec.get t.name i) (Vec.get t.start i) (Vec.get t.stop i) (Vec.get t.parent i)
        (Vec.get t.rid i)
    done;
    close_out oc
end
