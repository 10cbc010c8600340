(* Trace spans: phase-labelled intervals of the query pipeline,
   recorded into per-domain ring buffers and summarized into the
   default registry's per-phase histograms.

   A span is entered with the current block-read count of whatever
   Io_stats the caller is charged against and exited with the same
   counter read again, so each event carries both wall time and blocks
   touched during the phase. Nesting depth is tracked per domain (a
   DLS counter), which lets the dump indent a query's pipeline —
   first-level descent, then the PST / interval-tree / slab probes it
   dispatches — without the probes knowing about each other.

   Every event also carries a request id (propagated per domain via
   DLS, see [with_request_id]) and the recording domain's id, so spans
   from a server's worker domains can be stitched back into one
   per-request timeline after the fact.

   When tracing is off ([Control.enabled () = false]) [enter] returns
   the shared [none] span and [exit] returns immediately: no
   allocation, no lock, no clock read. When on, each domain pushes
   into its own ring (registered once, merged by [events ()]), so span
   exits from concurrent query workers never contend on a shared ring
   lock — only the per-phase histogram update serializes, inside the
   registry. *)

type event = {
  seq : int;
  phase : string;
  depth : int;
  t0_ns : int;
  dur_ns : int;
  blocks : int;
  request_id : int;
  dom : int;
}

type span = { sphase : string; st0 : int; sblocks : int; sdepth : int; srid : int }

let none = { sphase = ""; st0 = 0; sblocks = 0; sdepth = 0; srid = 0 }

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ---------------- request identity ---------------- *)

(* Ids are positive and unique within a process (a counter) and
   unlikely to collide across processes (the base folds in wall clock
   and pid), which is all stitching a client's spans with a server's
   needs. 0 means "no request": spans recorded outside any request
   keep it. *)

let rid_base =
  (int_of_float (Unix.gettimeofday () *. 1e6) * 0x9E3779B9) lxor (Unix.getpid () lsl 24)

let rid_counter = Atomic.make 0

let fresh_request_id () =
  let id = (rid_base + Atomic.fetch_and_add rid_counter 1) land max_int in
  if id = 0 then 1 else id

let rid_key = Domain.DLS.new_key (fun () -> ref 0)

let current_request_id () = !(Domain.DLS.get rid_key)

let with_request_id rid f =
  let r = Domain.DLS.get rid_key in
  let saved = !r in
  r := rid;
  Fun.protect ~finally:(fun () -> r := saved) f

(* ---------------- per-domain rings ---------------- *)

(* Each domain owns one ring (created and registered on first use);
   only the owner writes it, so pushes are lock-free. The mutex guards
   the registry of rings and the structural operations
   ([set_capacity]/[clear]/[events]).

   A ring is preallocated as parallel arrays, one per event field, and
   a push only overwrites slots: it allocates nothing, and since the
   fields are ints and phase strings that are literals (or built once
   by their caller), it leaves no young value reachable from the ring,
   which lives in the major heap. A ring of fresh [Some event] records
   would have every event promoted by the next minor GC. [events]
   builds the records on read.

   [events] reads a ring while its owner may be pushing. [ver] is a
   sequence lock over the whole ring: the owner makes it odd before
   writing event [k] into its slot and even ([2k+2]) after, so a reader
   keeps only events completed when it began and not overwritten (a
   later event started in the same slot) by the time it finished: never
   a torn event. [set_capacity] and [clear] swap in a fresh [store]; an
   owner mid-push finishes into the old one, whose events are
   discarded anyway. *)

type store = {
  ver : int Atomic.t;
  seq_a : int array;
  depth_a : int array;
  t0_a : int array;
  dur_a : int array;
  blocks_a : int array;
  rid_a : int array;
  phase_a : string array;
}

type ring = { mutable store : store; dom : int }

let mu = Mutex.create ()
let default_capacity = 4096
let cap = Atomic.make default_capacity
let rings : ring list ref = ref []
let next_seq = Atomic.make 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let make_store n =
  let ints () = Array.make n 0 in
  {
    ver = Atomic.make 0;
    seq_a = ints ();
    depth_a = ints ();
    t0_a = ints ();
    dur_a = ints ();
    blocks_a = ints ();
    rid_a = ints ();
    phase_a = Array.make n "";
  }

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r = { store = make_store (Atomic.get cap); dom = (Domain.self () :> int) } in
      locked (fun () -> rings := r :: !rings);
      r)

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  locked (fun () ->
      Atomic.set cap n;
      List.iter (fun r -> r.store <- make_store n) !rings;
      Atomic.set next_seq 0)

let capacity () = Atomic.get cap

let clear () =
  locked (fun () ->
      let n = Atomic.get cap in
      List.iter (fun r -> r.store <- make_store n) !rings;
      Atomic.set next_seq 0)

(* Push onto the calling domain's ring. The ring keeps its own write
   cursor (the event count in [ver], not [seq mod capacity]) so each
   domain retains its last [capacity] events even when seqs interleave
   across domains. *)
let push ~seq ~phase ~depth ~t0_ns ~dur_ns ~blocks ~request_id =
  let s = (Domain.DLS.get ring_key).store in
  let v = Atomic.get s.ver in
  let i = v / 2 mod Array.length s.seq_a in
  Atomic.set s.ver (v + 1);
  s.seq_a.(i) <- seq;
  s.depth_a.(i) <- depth;
  s.t0_a.(i) <- t0_ns;
  s.dur_a.(i) <- dur_ns;
  s.blocks_a.(i) <- blocks;
  s.rid_a.(i) <- request_id;
  s.phase_a.(i) <- phase;
  Atomic.set s.ver (v + 2)

let ring_events r acc =
  let s = r.store in
  let n = Array.length s.seq_a in
  let v0 = Atomic.get s.ver in
  let events = ref [] in
  for k = max 0 ((v0 / 2) - n) to (v0 / 2) - 1 do
    let i = k mod n in
    events :=
      (k,
       {
         seq = s.seq_a.(i);
         phase = s.phase_a.(i);
         depth = s.depth_a.(i);
         t0_ns = s.t0_a.(i);
         dur_ns = s.dur_a.(i);
         blocks = s.blocks_a.(i);
         request_id = s.rid_a.(i);
         dom = r.dom;
       })
      :: !events
  done;
  (* events started after [v0], counted by [ver] now (an odd [ver]
     counts the one in flight), overwrote the slots of the oldest *)
  let started = (Atomic.get s.ver + 1) / 2 in
  List.fold_left (fun acc (k, ev) -> if k + n >= started then ev :: acc else acc) acc !events

let events () =
  locked (fun () ->
      let acc = List.fold_left (fun acc r -> ring_events r acc) [] !rings in
      List.sort (fun (a : event) b -> compare a.seq b.seq) acc)

(* ---------------- spans ---------------- *)

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let span_histogram phase = "span." ^ phase ^ ".ns"
let span_blocks_histogram phase = "span." ^ phase ^ ".blocks"

let enter ?(blocks = 0) phase =
  if not (Control.enabled ()) then none
  else begin
    let d = Domain.DLS.get depth_key in
    let sp =
      {
        sphase = phase;
        st0 = now_ns ();
        sblocks = blocks;
        sdepth = !d;
        srid = current_request_id ();
      }
    in
    incr d;
    sp
  end

let span_histograms phase = (span_histogram phase, span_blocks_histogram phase)

(* One registry lock per event; the phase's two histograms are resolved
   once and memoized, so no name is built per call. *)
let observe phase ~dur_ns ~blocks =
  Metrics.observe_pair Metrics.default phase ~names:span_histograms dur_ns blocks

let exit ?(blocks = 0) sp =
  if sp != none then begin
    let d = Domain.DLS.get depth_key in
    if !d > 0 then decr d;
    let dur_ns = now_ns () - sp.st0 in
    let blocks = max 0 (blocks - sp.sblocks) in
    push ~seq:(Atomic.fetch_and_add next_seq 1) ~phase:sp.sphase ~depth:sp.sdepth
      ~t0_ns:sp.st0 ~dur_ns ~blocks ~request_id:sp.srid;
    observe sp.sphase ~dur_ns ~blocks
  end

let with_span ?(blocks = fun () -> 0) phase f =
  if not (Control.enabled ()) then f ()
  else begin
    let sp = enter ~blocks:(blocks ()) phase in
    Fun.protect ~finally:(fun () -> exit ~blocks:(blocks ()) sp) f
  end

(* Direct event injection, for intervals whose start and end live on
   different domains (a request's queue wait: stamped at submit on one
   domain, measured at pickup on another). Records into the calling
   domain's ring and feeds the same per-phase histograms as a span. *)
let record ?request_id ?(blocks = 0) ~t0_ns ~dur_ns phase =
  if Control.enabled () then begin
    let request_id = match request_id with Some r -> r | None -> current_request_id () in
    push ~seq:(Atomic.fetch_and_add next_seq 1) ~phase ~depth:!(Domain.DLS.get depth_key)
      ~t0_ns ~dur_ns ~blocks ~request_id;
    observe phase ~dur_ns ~blocks
  end
