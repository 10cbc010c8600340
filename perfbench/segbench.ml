(* segbench: the segdb benchmark.

   segbench --workload W --seed N --seconds S --trace 0|1
            [--dir D] [--source REV]

   Three closed-loop workloads, each driven by one client on one
   domain, all on the solution2 backend:

   - embedded_cold: in-process Segdb.count over 65536 roads segments
     with a 16-block buffer pool (the index is ~200x the pool), so the
     paper's block-transfer cost is real. Obs off. Touches core and io
     only.
   - serve_hot: one Client over a loopback Unix socket to an in-process
     Server with one worker whose reader shard holds the whole index.
     Obs on, as segdb_server ships. The structure is a minor share of
     the round trip; net, exec and obs own the rest.
   - churn_wal: in-process 80% Segdb.count / 20% writes (insert of a
     held-back segment, delete of the oldest live one) over ~4k live
     segments, WAL fsynced on every append, a checkpoint every
     [churn_ckpt_every] writes. The only workload that touches Wal and
     Snapshot.

   Every answer is checked against a naive-backend index built outside
   the timed window. [--trace 0] measures the end-to-end metrics with
   no tracing; [--trace 1] runs an untraced half-window, a traced
   half-window and the layer probes, and reports the per-layer
   metrics. The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module W = Segdb_workload.Workload
module Db = Segdb_core.Segdb
module Rng = Segdb_util.Rng
module Control = Segdb_obs.Control
module Server = Segdb_net.Server
module Client = Segdb_net.Client
module Wire = Segdb_net.Wire
module Exec = Segdb_exec.Exec
module Io_stats = Segdb_io.Io_stats
module Read_context = Segdb_io.Read_context
module Wal = Segdb_io.Wal
open Rec

(* ---------------- fixed workload parameters ---------------- *)

let span = 1000.0
let block = 64
let cold_pool = 16
let cold_n = 65536
let serve_n = 32768
let churn_live = 4096
let churn_held = 4096
let churn_ckpt_every = 1000

(* A churn_wal rate slice holds exactly one checkpoint (one write in
   five, one checkpoint per [churn_ckpt_every] writes) and two passes of
   the query sequence, so the least-disturbed slices still pay for
   checkpoints and all slices do the same reads. *)
let churn_rate_ops = 5 * churn_ckpt_every

(* Distinct queries per workload: one pass of the sequence is one
   latency slice (a p99 over 2000 samples has twenty beyond it). *)
let nq = 2000
let selectivity = 0.02

(* Set-up is repeated this many times per run; setup_s is the median. *)
let setups = 5

(* ---------------- arguments ---------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let dir = ref ".perfbench"
let source = ref "unknown"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "embedded_cold | serve_hot | churn_wal");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced per-layer metrics");
      ("--dir", Arg.Set_string dir, "scratch directory for sockets, WAL and spans");
      ("--source", Arg.Set_string source, "source revision to stamp on the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "segbench --workload W --seed N --seconds S --trace 0|1"

let traced_run = !trace = 1

(* ---------------- results ---------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

(* End-to-end figures printed on the [issue_metrics] line but not in the
   result: the write figures exist on churn_wal only, failed_frac is 0
   by design, and the timings (ops/s, query p50/p99) spread more from
   run to run on a shared host than any bound the result may carry (see
   e2e_of). Compare timings between two commits with alternating
   paired runs instead. *)
let extra : (string * float * string) list ref = ref []
let extra_metric name unit v = extra := (name, v, unit) :: !extra

let json_metrics l =
  String.concat ", "
    (List.rev_map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) l)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Answer-check failures found outside the timed windows. *)
let check_failures = ref 0
let check_attempts = ref 0

let check ok what =
  incr check_attempts;
  if not ok then begin
    incr check_failures;
    say "CHECK FAILED: %s" what
  end

let us ns = ns /. 1e3
let fi = float_of_int

let time_s f =
  let t0 = now_ns () in
  let r = f () in
  (r, fi (now_ns () - t0) /. 1e9)

(* Median set-up time over [setups] repetitions; returns the last
   state (earlier ones are released through [teardown]). Each set-up
   starts from a compacted heap, so peak_heap_mb sees one set-up, not
   the garbage of the ones before it. *)
let repeat_setup ~setup ~teardown =
  let times = ref [] and last = ref None in
  for _ = 1 to setups do
    Option.iter teardown !last;
    last := None;
    Gc.compact ();
    let st, dt = time_s setup in
    times := dt :: !times;
    last := Some st
  done;
  (Option.get !last, median_f !times)

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Whether [path] lives on a tmpfs: the longest mount point in
   /proc/self/mounts that prefixes its absolute path. *)
let fs_type path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  try
    let ic = open_in "/proc/self/mounts" in
    let best = ref ("", "unknown") in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | _ :: mp :: fs :: _ ->
             let pre = if mp = "/" then "/" else mp ^ "/" in
             if
               (String.length abs >= String.length pre
               && String.sub abs 0 (String.length pre) = pre
               || abs = mp)
               && String.length mp >= String.length (fst !best)
             then best := (mp, fs)
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    snd !best
  with Sys_error _ -> "unknown"

(* Machine-state provenance. The time of a fixed in-cache loop (best of
   five) tells how fast this machine ran during the run; the host's
   steal time (all CPUs, from /proc/stat, in USER_HZ ticks) tells how
   much of it was taken away. Neither enters a metric. *)
let calibrate_ms () =
  let a = Array.make 4096 1 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now_ns () in
    let s = ref 0 in
    for i = 0 to 20_000_000 do
      s := !s + a.((i * 7) land 4095)
    done;
    ignore (Sys.opaque_identity !s);
    best := Float.min !best (fi (now_ns () - t0) /. 1e6)
  done;
  !best

let steal_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let l = input_line ic in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: st :: _ -> int_of_string st
    | _ -> 0
  with Sys_error _ | End_of_file | Failure _ -> 0

(* ---------------- shared measurements ---------------- *)

(* The reference answers: a naive-backend index (scan every block) over
   the same segments, built before the measured index and dropped
   before it is set up. Its pool holds the whole scan. *)
let expected_answers segs queries =
  let naive = Db.create ~backend:`Naive ~block ~pool_blocks:((Array.length segs / block) + 2) segs in
  Array.map (fun q -> Db.query_ids naive q) queries

(* One whole pass of [count] over the query sequence with no timers:
   minor words and results per query. Single-domain and deterministic,
   so both repeat exactly for a seed. *)
let exact_pass count queries =
  let w0 = Gc.minor_words () in
  let res = ref 0 in
  for i = 0 to Array.length queries - 1 do
    res := !res + count queries.(i)
  done;
  let w1 = Gc.minor_words () in
  let n = fi (Array.length queries) in
  ((w1 -. w0) /. n, fi !res /. n)

(* Reader-shard hit ratio over a pass, after one warming pass. *)
let cache_hit_ratio db queries ~cache_blocks =
  let r = Db.reader ~cache_blocks db in
  Array.iter (fun q -> ignore (Db.count_r db r q)) queries;
  let h0 = Read_context.cache_hits r and m0 = Read_context.cache_misses r in
  Array.iter (fun q -> ignore (Db.count_r db r q)) queries;
  let h = Read_context.cache_hits r - h0 and m = Read_context.cache_misses r - m0 in
  fi h /. fi (max 1 (h + m))

(* Median per-query time of inline [Db.count_r] through a warm reader,
   alternating obs off and on: (off_us, on_us). *)
let count_r_obs db queries ~cache_blocks =
  let r = Db.reader ~cache_blocks db in
  Array.iter (fun q -> ignore (Db.count_r db r q)) queries;
  let was_on = Control.enabled () in
  let off = Vec.create () and on = Vec.create () in
  for rep = 0 to 5 do
    let v = if rep mod 2 = 0 then off else on in
    if rep mod 2 = 0 then Control.disable () else Control.enable ();
    Array.iter
      (fun q ->
        let t0 = now_ns () in
        ignore (Db.count_r db r q);
        Vec.push v (now_ns () - t0))
      queries
  done;
  if was_on then Control.enable () else Control.disable ();
  (us (percentile (Vec.to_array off) 0.5), us (percentile (Vec.to_array on) 0.5))

(* The end-to-end figures of one untraced window.

   This benchmark runs on shared machines. On a 2-CPU VM a fixed loop,
   timed over and over, ran up to 2x slower in some seconds than in
   others, with slow spells lasting from seconds to many minutes, so
   whole-window medians moved 15-30% from run to run. Interference only
   ever adds time, and every slice does the same work (whole passes of
   the query sequence), so throughput and p50 are read from the
   least-disturbed slices: ops/s is the 95th percentile of the slice
   rates and query p50 the 5th percentile of the slice p50s. A p99 is
   itself a tail, and the slices that lack tail events are a noisier
   pick, so query p99 is the median of the slice p99s. A program that gets slower is slower in
   every slice. The whole-window figures are printed beside these. The
   long spells still move these figures more than a result's bound may
   allow, so they are reported, not gated. *)
type e2e = {
  ops_per_s : float;
  p50 : float;
  p99 : float;
  samples : int;
  rate_slices : int;
  lat_slices : int;
}

(* The per-slice figures, kept so an estimator can be re-derived. *)
let write_slices rates p50s p99s =
  let oc = open_out (Filename.concat !dir (Printf.sprintf "slices-%s-%d.json" !workload !seed)) in
  let l xs = String.concat ", " (List.map (Printf.sprintf "%.17g") xs) in
  Printf.fprintf oc "{\"rates\": [%s], \"p50_ns\": [%s], \"p99_ns\": [%s]}\n" (l rates) (l p50s)
    (l p99s);
  close_out oc

let e2e_of ~rate_ops w =
  let rates, p50s, p99s = slices ~rate_ops ~lat_ops:nq w in
  write_slices rates p50s p99s;
  {
    ops_per_s = quantile_f rates 0.95;
    p50 = us (quantile_f p50s 0.05);
    p99 = us (median_f p99s);
    samples = Vec.length w.q_lat;
    rate_slices = List.length rates;
    lat_slices = List.length p50s;
  }

let report_window label ~rate_ops w e =
  let lat = Vec.to_array w.q_lat in
  say "%s: %.2fs, %d ops (%d failed); whole window: %.1f ops/s, query p50 %.2fus, p99 %.2fus \
       (n=%d)"
    label (seconds_of w) (Vec.length w.ends) w.failed
    (fi (Vec.length w.ends) /. seconds_of w)
    (us (percentile lat 0.5))
    (us (percentile lat 0.99))
    e.samples;
  say "%s: ops/s %.1f (p95 of %d slices of %d ops); query p50 %.2fus (p5), p99 %.2fus (median) \
       of %d slices of %d queries (n=%d)"
    label e.ops_per_s e.rate_slices rate_ops e.p50 e.p99 e.lat_slices nq e.samples;
  let wl = Vec.to_array w.w_lat in
  if Array.length wl > 0 then
    say "%s: write p50 %.2fus, p99 %.2fus (whole window, n=%d)" label
      (us (percentile wl 0.5))
      (us (percentile wl 0.99))
      (Array.length wl)

(* What a workload hands back to the common driver. *)
type run = {
  tried : int;
  lost : int;
  setup_s : float;
  blocks_per_query : float;
}

let run_of ~w ~traced ~setup_s ~bpq =
  let tw_tried, tw_lost =
    match traced with Some (tw, _) -> (tw.attempted, tw.failed) | None -> (0, 0)
  in
  { tried = w.attempted + tw_tried; lost = w.failed + tw_lost; setup_s; blocks_per_query = bpq }

let peak_heap_words = ref 0

(* Runs the timed windows for [step]: one untraced window of the whole
   run time, or (traced) an untraced half followed by a traced half.
   Returns the untraced window and the traced one with its spans. *)
let windows ~min_ops step =
  (* start every window from a compacted heap: set-up garbage must not
     be collected on the clock *)
  Gc.compact ();
  if not traced_run then begin
    let w, _ = run_window ~seconds:!seconds ~min_ops ~first:0 (step ~tr:None) in
    (* before any analysis allocates *)
    peak_heap_words := (Gc.quick_stat ()).top_heap_words;
    (w, None)
  end
  else begin
    let half = !seconds /. 2.0 in
    let w, k = run_window ~seconds:half ~min_ops ~first:0 (step ~tr:None) in
    let tr = Spans.create () in
    let tw, _ = run_window ~seconds:half ~min_ops:0 ~first:k (step ~tr:(Some tr)) in
    (w, Some (tw, tr))
  end

(* Layer metrics the workload does not reach read 0: the layer is not
   on its path. *)
let layer_names =
  [
    ("core.query_us", "us");
    ("core.query_words", "words");
    ("core.results_per_query", "count");
    ("core.write_us", "us");
    ("core.checkpoint_ms", "ms");
    ("core.checkpoints", "count");
    ("io.cache_hit_ratio", "ratio");
    ("io.wal_append_us", "us");
    ("io.wal_bytes_per_write", "B");
    ("io.snapshot_bytes", "B");
    ("exec.handoff_us", "us");
    ("net.ping_us", "us");
    ("net.codec_us", "us");
    ("net.frame_bytes", "B");
    ("net.residual_us", "us");
    ("obs.overhead_ratio", "ratio");
    ("gc.minor_per_kop", "count");
    ("gc.major_per_kop", "count");
    ("trace.overhead_us", "us");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 32
let layer name v = Hashtbl.replace layer_values name v

(* The layer metrics every workload shares, from its untraced window
   [w] and traced window [tw]. *)
let common_layers ~w ~tw ~tr =
  let ops = fi (max 1 (Vec.length w.ends)) in
  layer "gc.minor_per_kop" (fi w.minor_gcs *. 1000.0 /. ops);
  layer "gc.major_per_kop" (fi w.major_gcs *. 1000.0 /. ops);
  let p50 win = us (percentile (Vec.to_array win.q_lat) 0.5) in
  layer "trace.overhead_us" (p50 tw -. p50 w);
  say "trace: %d spans; query p50 traced %.2fus vs untraced %.2fus" (Spans.count tr) (p50 tw)
    (p50 w);
  say "%-24s %8s %12s %12s" "span" "count" "p50 us" "mean self us";
  List.iter
    (fun (nm, c, p50, self) -> say "%-24s %8d %12.2f %12.2f" nm c p50 self)
    (Spans.summary tr);
  let path = Filename.concat !dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed) in
  Spans.write tr path;
  say "trace: spans written to %s (at most the first 100000)" path

let span_p50_us tr name = us (percentile (Spans.durations_of tr name) 0.5)

(* ---------------- embedded_cold ---------------- *)

let embedded_cold () =
  let queries = W.mixed_queries (Rng.create (!seed * 7919 + 1)) ~n:nq ~span ~selectivity in
  let gen () = W.roads (Rng.create !seed) ~n:cold_n ~span in
  let expected, check_s = time_s (fun () -> expected_answers (gen ()) queries) in
  let db, setup_s =
    repeat_setup
      ~setup:(fun () -> Db.create ~backend:`Solution2 ~block ~pool_blocks:cold_pool (gen ()))
      ~teardown:ignore
  in
  say "embedded_cold: n=%d, %d blocks, pool %d blocks, %d queries (mixed, sel %.2f)" cold_n
    (Db.block_count db) cold_pool nq selectivity;
  say "embedded_cold: set-up %.3fs (median of %d), naive answers %.2fs" setup_s setups check_s;
  Array.iteri
    (fun i q -> check (Db.query_ids db q = expected.(i)) (Printf.sprintf "embedded_cold query %d" i))
    queries;
  let expected_n = Array.map List.length expected in
  let words, results = exact_pass (Db.count db) queries in
  let io = Db.io db in
  (* blocks/query over the first whole pass of the timed loop *)
  let reads0 = Io_stats.reads io and reads_pass = ref 0 in
  let step ~tr w k =
    let i = k mod nq in
    let q = queries.(i) in
    w.attempted <- w.attempted + 1;
    let t0 = now_ns () in
    let c =
      match tr with
      | None -> Db.count db q
      | Some tr ->
          Spans.span tr ~rid:k ~parent:(-1) "op" (fun p ->
              Spans.span tr ~rid:k ~parent:p "core.count" (fun _ -> Db.count db q))
    in
    let t1 = now_ns () in
    if c <> expected_n.(i) then w.failed <- w.failed + 1;
    Vec.push w.q_lat (t1 - t0);
    Vec.push w.ends t1;
    if k = nq - 1 then reads_pass := Io_stats.reads io - reads0
  in
  let w, traced = windows ~min_ops:nq step in
  let e = e2e_of ~rate_ops:nq w in
  report_window "embedded_cold" ~rate_ops:nq w e;
  let bpq = fi !reads_pass /. fi nq in
  say "embedded_cold: %.4f blocks/query, %.1f words/query, %.3f results/query (exact, one pass)"
    bpq words results;
  (match traced with
  | None -> ()
  | Some (tw, tr) ->
      layer "core.query_us" (span_p50_us tr "core.count");
      layer "core.query_words" words;
      layer "core.results_per_query" results;
      layer "io.cache_hit_ratio" (cache_hit_ratio db queries ~cache_blocks:cold_pool);
      let off, on = count_r_obs db queries ~cache_blocks:cold_pool in
      layer "obs.overhead_ratio" (on /. off);
      common_layers ~w ~tw ~tr);
  ( run_of ~w ~traced ~setup_s ~bpq, e )

(* ---------------- serve_hot ---------------- *)

(* The serve_hot attribution: each child of the round trip measured on
   its own, from the benchmark's side of the public interfaces. *)
let serve_layers ~db ~c ~queries ~expected ~cache_blocks ~w ~tw ~tr =
  let rid = ref (-1) in
  let next () = decr rid; !rid in
  let sample n f =
    let v = Vec.create () in
    for i = 0 to n - 1 do
      let t0 = now_ns () in
      f i;
      Vec.push v (now_ns () - t0)
    done;
    us (percentile (Vec.to_array v) 0.5)
  in
  (* net.ping_us: the transport and select-loop floor *)
  let ping =
    sample 2000 (fun _ -> Spans.span tr ~rid:(next ()) ~parent:(-1) "net.ping" (fun _ -> Client.ping c))
  in
  (* net.codec_us: the four codec calls of one query exchange, timed in
     batches over the workload's own Query and Ids frames *)
  let reqs = Array.map (fun q -> Wire.Query q) queries in
  let resps = Array.map (fun ids -> Wire.Ids { ids; complete = true; faults = [] }) expected in
  let req_frames = Array.map Wire.encode_request reqs in
  let resp_frames = Array.map Wire.encode_response resps in
  let payload f = String.sub f Wire.header_bytes (String.length f - Wire.header_bytes) in
  let req_payloads = Array.map payload req_frames and resp_payloads = Array.map payload resp_frames in
  let frame_bytes =
    fi
      (Array.fold_left (fun a f -> a + String.length f) 0 req_frames
      + Array.fold_left (fun a f -> a + String.length f) 0 resp_frames)
    /. fi nq
  in
  let codec_runs = Vec.create () in
  for _ = 1 to 7 do
    let r = next () in
    let t0 = now_ns () in
    Spans.span tr ~rid:r ~parent:(-1) "net.codec" (fun p ->
        let each name f a = Spans.span tr ~rid:r ~parent:p name (fun _ -> Array.iter f a) in
        each "wire.encode_request" (fun x -> ignore (Wire.encode_request x)) reqs;
        each "wire.decode_request" (fun x -> ignore (Wire.decode_request x)) req_payloads;
        each "wire.encode_response" (fun x -> ignore (Wire.encode_response x)) resps;
        each "wire.decode_response" (fun x -> ignore (Wire.decode_response x)) resp_payloads);
    Vec.push codec_runs ((now_ns () - t0) / nq)
  done;
  let codec = us (percentile (Vec.to_array codec_runs) 0.5) in
  (* core.query_us: inline count_r through a warm reader, obs on *)
  let rd = Db.reader ~cache_blocks db in
  Array.iter (fun q -> ignore (Db.count_r db rd q)) queries;
  let core =
    sample nq (fun i ->
        Spans.span tr ~rid:(next ()) ~parent:(-1) "core.count_r" (fun _ ->
            ignore (Db.count_r db rd queries.(i))))
  in
  let words, results = exact_pass (Db.count_r db rd) queries in
  (* exec.handoff_us: submit + await of a one-query request on a
     one-worker pool, minus the inline query *)
  let pool = Exec.create ~workers:1 () in
  let reqs = Array.map (fun q -> Exec.request [| q |]) queries in
  Array.iter (fun r -> ignore (Exec.await (Exec.submit ~cache_blocks pool db r))) reqs;
  let submitted =
    sample nq (fun i ->
        Spans.span tr ~rid:(next ()) ~parent:(-1) "exec.handoff" (fun p ->
            let t =
              Spans.span tr ~rid:!rid ~parent:p "exec.submit" (fun _ ->
                  Exec.submit ~cache_blocks pool db reqs.(i))
            in
            Spans.span tr ~rid:!rid ~parent:p "exec.await" (fun _ -> ignore (Exec.await t))))
  in
  Exec.shutdown pool;
  let handoff = submitted -. core in
  let off, on = count_r_obs db queries ~cache_blocks in
  layer "core.query_us" core;
  layer "core.query_words" words;
  layer "core.results_per_query" results;
  layer "io.cache_hit_ratio" (cache_hit_ratio db queries ~cache_blocks);
  layer "exec.handoff_us" handoff;
  layer "net.ping_us" ping;
  layer "net.codec_us" codec;
  layer "net.frame_bytes" frame_bytes;
  (* medians throughout: the whole untraced window's, not the slice figure *)
  let rtt = us (percentile (Vec.to_array w.q_lat) 0.5) in
  let residual = rtt -. (ping +. codec +. handoff +. core) in
  layer "net.residual_us" residual;
  layer "obs.overhead_ratio" (on /. off);
  common_layers ~w ~tw ~tr;
  let tw_p50 = us (percentile (Vec.to_array tw.q_lat) 0.5) in
  say "serve_hot attribution (p50, us)";
  say "  %-28s %10.2f" "client round trip" rtt;
  say "    %-26s %10.2f" "net.ping_us" ping;
  say "    %-26s %10.2f" "net.codec_us" codec;
  say "    %-26s %10.2f" "exec.handoff_us" handoff;
  say "    %-26s %10.2f" "core.query_us" core;
  say "  %-28s %10.2f" "net.residual_us" residual;
  say "  %-28s %10.2f (traced p50 %.2f)" "tracing overhead" (tw_p50 -. rtt) tw_p50

let serve_hot () =
  Control.enable ();
  let queries = W.segment_queries (Rng.create (!seed * 7919 + 2)) ~n:nq ~span ~selectivity in
  let setup_no = ref 0 in
  let cache_blocks = ref 0 in
  let setup () =
    incr setup_no;
    let db = Db.create ~backend:`Solution2 ~block (W.uniform (Rng.create !seed) ~n:serve_n ~span) in
    cache_blocks := Db.block_count db + 64;
    let sock = Filename.concat !dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !setup_no) in
    let srv =
      Server.create ~domains:1 ~cache_blocks:!cache_blocks ~db (Server.Unix_path sock)
    in
    Server.start srv;
    let c = Client.connect (Server.Unix_path sock) in
    (* warm the worker's shard with one batch frame: the same reader the
       single-query frames use, without 2000 scheduler-bound round trips *)
    ignore (Client.batch c queries);
    (db, srv, c)
  in
  let teardown (_, srv, c) =
    Client.close c;
    Server.stop srv;
    Server.wait srv
  in
  let expected = expected_answers (W.uniform (Rng.create !seed) ~n:serve_n ~span) queries in
  let (db, srv, c), setup_s = repeat_setup ~setup ~teardown in
  say "serve_hot: n=%d, %d blocks, worker cache %d blocks, %d segment queries (sel %.2f)" serve_n
    (Db.block_count db) !cache_blocks nq selectivity;
  let step ~tr w k =
    let i = k mod nq in
    let q = queries.(i) in
    w.attempted <- w.attempted + 1;
    let t0 = now_ns () in
    let ans =
      try
        Ok
          (match tr with
          | None -> Client.query c q
          | Some tr ->
              Spans.span tr ~rid:k ~parent:(-1) "op" (fun p ->
                  Spans.span tr ~rid:k ~parent:p "net.client_query" (fun _ -> Client.query c q)))
      with e -> Error e
    in
    let t1 = now_ns () in
    (match ans with
    | Ok { Db.Degraded.value; complete = true; _ } when value = expected.(i) -> ()
    | _ -> w.failed <- w.failed + 1);
    Vec.push w.q_lat (t1 - t0);
    Vec.push w.ends t1
  in
  let w, traced = windows ~min_ops:nq step in
  let e = e2e_of ~rate_ops:nq w in
  report_window "serve_hot" ~rate_ops:nq w e;
  (* The server's warm shard reads no blocks; the paper's cost is the
     served index's transfers through a pool-sized (16-block) reader. *)
  let r = Db.reader ~cache_blocks:cold_pool db in
  Array.iter (fun q -> ignore (Db.count_r db r q)) queries;
  let before = Io_stats.reads (Db.reader_io r) in
  Array.iter (fun q -> ignore (Db.count_r db r q)) queries;
  let bpq = fi (Io_stats.reads (Db.reader_io r) - before) /. fi nq in
  say "serve_hot: %.4f blocks/query through a %d-block reader (exact, one pass)" bpq cold_pool;
  (match traced with
  | None -> ()
  | Some (tw, tr) -> serve_layers ~db ~c ~queries ~expected ~cache_blocks:!cache_blocks ~w ~tw ~tr);
  teardown (db, srv, c);
  (run_of ~w ~traced ~setup_s ~bpq, e)

(* ---------------- churn_wal ---------------- *)

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let churn_wal () =
  let wdir = Filename.concat !dir (Printf.sprintf "churn-%d" (Unix.getpid ())) in
  mkdir_p wdir;
  let wal = Filename.concat wdir "db.wal" and snap = Filename.concat wdir "db.snap" in
  let cleanup () =
    Array.iter (fun f -> Sys.remove (Filename.concat wdir f)) (Sys.readdir wdir);
    Unix.rmdir wdir
  in
  let queries = W.mixed_queries (Rng.create (!seed * 7919 + 3)) ~n:nq ~span ~selectivity in
  let all = ref [||] and live = Queue.create () and held = Queue.create () in
  let setup () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ wal; snap ];
    all := W.uniform (Rng.create !seed) ~n:(churn_live + churn_held) ~span;
    let order = Array.copy !all in
    Rng.shuffle (Rng.create (!seed + 1)) order;
    (* the generator may return fewer segments than asked for *)
    let n_live = min churn_live (Array.length order / 2) in
    let initial = Array.sub order 0 n_live in
    Queue.clear live;
    Queue.clear held;
    Array.iter (fun s -> Queue.push s live) initial;
    Array.iter (fun s -> Queue.push s held) (Array.sub order n_live (Array.length order - n_live));
    let db = Db.create ~backend:`Solution2 ~block ~pool_blocks:cold_pool initial in
    ignore (Db.attach_wal db wal);
    db
  in
  let db, setup_s = repeat_setup ~setup ~teardown:Db.detach_wal in
  say "churn_wal: %d live + %d held-back segments, %d blocks, pool %d, checkpoint every %d writes, \
       WAL dir %s on %s"
    (Db.size db) (Queue.length held) (Db.block_count db) cold_pool churn_ckpt_every wdir (fs_type wdir);
  let n_live0 = Db.size db in
  let words, results = exact_pass (Db.count db) queries in
  let io = Db.io db in
  let writes = ref 0 and ckpt = Vec.create () in
  let wal_bytes = ref 0 and snap_bytes = ref 0 in
  let q_done = ref 0 and reads_q = ref 0 and reads_pass = ref (-1) in
  let checkpoint tr k =
    let t0 = now_ns () in
    wal_bytes := !wal_bytes + file_size wal;
    (match tr with
    | None -> Db.checkpoint db snap
    | Some tr -> Spans.span tr ~rid:k ~parent:(-1) "core.checkpoint" (fun _ -> Db.checkpoint db snap));
    Vec.push ckpt (now_ns () - t0);
    snap_bytes := !snap_bytes + file_size snap
  in
  let step ~tr w k =
    w.attempted <- w.attempted + 1;
    let in_span name f =
      match tr with
      | None -> f ()
      | Some tr ->
          Spans.span tr ~rid:k ~parent:(-1) "op" (fun p -> Spans.span tr ~rid:k ~parent:p name (fun _ -> f ()))
    in
    if k mod 5 = 4 then begin
      let t0 = now_ns () in
      let ok =
        try
          if !writes mod 2 = 0 then begin
            let s = Queue.pop held in
            in_span "core.insert" (fun () -> Db.insert db s);
            Queue.push s live;
            true
          end
          else begin
            let s = Queue.pop live in
            let ok = in_span "core.delete" (fun () -> Db.delete db s) in
            Queue.push s held;
            ok
          end
        with _ -> false
      in
      let t1 = now_ns () in
      if not ok then w.failed <- w.failed + 1;
      incr writes;
      Vec.push w.w_lat (t1 - t0);
      if !writes mod churn_ckpt_every = 0 then begin
        checkpoint tr k;
        Vec.push w.ends (now_ns ())
      end
      else Vec.push w.ends t1
    end
    else begin
      let q = queries.(!q_done mod nq) in
      let r0 = Io_stats.reads io in
      let t0 = now_ns () in
      (try ignore (in_span "core.count" (fun () -> Db.count db q))
       with _ -> w.failed <- w.failed + 1);
      let t1 = now_ns () in
      reads_q := !reads_q + (Io_stats.reads io - r0);
      incr q_done;
      if !q_done = 4 * nq then reads_pass := !reads_q;
      Vec.push w.q_lat (t1 - t0);
        Vec.push w.ends t1
    end
  in
  (* four passes of queries, to count blocks over *)
  let w, traced = windows ~min_ops:(5 * nq) step in
  let e = e2e_of ~rate_ops:churn_rate_ops w in
  report_window "churn_wal" ~rate_ops:churn_rate_ops w e;
  wal_bytes := !wal_bytes + file_size wal;
  let bytes_per_write = fi (!wal_bytes + !snap_bytes) /. fi (max 1 !writes) in
  extra_metric "write_p50_us" "us" (us (percentile (Vec.to_array w.w_lat) 0.5));
  extra_metric "write_p99_us" "us" (us (percentile (Vec.to_array w.w_lat) 0.99));
  extra_metric "bytes_written_per_write" "B" bytes_per_write;
  let ckpts = Vec.length ckpt in
  let ckpt_ms = us (percentile (Vec.to_array ckpt) 0.5) /. 1e3 in
  let bpq = fi !reads_pass /. fi (4 * nq) in
  say "churn_wal: %d writes, %d checkpoints (p50 %.1fms), %.1f B written/write (WAL %d B + \
       snapshots %d B)"
    !writes ckpts ckpt_ms bytes_per_write !wal_bytes !snap_bytes;
  say "churn_wal: %.4f blocks/query over the first %d queries, %.1f words/query, %.3f \
       results/query (exact)"
    bpq (4 * nq) words results;
  (* answer check after the run: naive index over the surviving set *)
  let expected = expected_answers (Db.segments db) queries in
  Array.iteri
    (fun i q -> check (Db.query_ids db q = expected.(i)) (Printf.sprintf "churn_wal query %d" i))
    queries;
  let findings = Db.validate db in
  List.iter (fun f -> say "validate: %s" f) findings;
  check (findings = []) "churn_wal Segdb.validate";
  check (Db.size db = n_live0 + (!writes mod 2)) "churn_wal live size";
  (match traced with
  | None -> ()
  | Some (tw, tr) ->
      (* io.wal_append_us: append + sync of this workload's records on
         a WAL in the same directory *)
      let probe = Filename.concat wdir "probe.wal" in
      let pw, _ = Wal.open_ ~sync:false probe in
      let recs =
        Array.init 512 (fun i ->
            let s = (!all).(i mod Array.length !all) in
            Db.encode_op (if i mod 2 = 0 then Db.Op_insert s else Db.Op_delete s))
      in
      let v = Vec.create () in
      Array.iter
        (fun r ->
          let t0 = now_ns () in
          Spans.span tr ~rid:0 ~parent:(-1) "io.wal_append" (fun _ ->
              Wal.append pw r;
              Wal.sync pw);
          Vec.push v (now_ns () - t0))
        recs;
      Wal.close pw;
      Sys.remove probe;
      let append = us (percentile (Vec.to_array v) 0.5) in
      let write_p50 = us (percentile (Vec.to_array tw.w_lat) 0.5) in
      layer "core.query_us" (span_p50_us tr "core.count");
      layer "core.query_words" words;
      layer "core.results_per_query" results;
      layer "core.write_us"
        (us (percentile (Array.append (Spans.durations_of tr "core.insert") (Spans.durations_of tr "core.delete")) 0.5)
        -. append);
      layer "core.checkpoint_ms" ckpt_ms;
      layer "core.checkpoints" (fi ckpts);
      layer "io.cache_hit_ratio" (cache_hit_ratio db queries ~cache_blocks:cold_pool);
      layer "io.wal_append_us" append;
      layer "io.wal_bytes_per_write" (fi !wal_bytes /. fi (max 1 !writes));
      layer "io.snapshot_bytes" (fi !snap_bytes /. fi (max 1 ckpts));
      let off, on = count_r_obs db queries ~cache_blocks:cold_pool in
      layer "obs.overhead_ratio" (on /. off);
      say "churn_wal: traced write p50 %.2fus = core %.2fus + wal append %.2fus" write_p50
        (write_p50 -. append) append;
      common_layers ~w ~tw ~tr);
  Db.detach_wal db;
  cleanup ();
  (run_of ~w ~traced ~setup_s ~bpq, e)

(* ---------------- main ---------------- *)

let () =
  mkdir_p !dir;
  let calib0 = calibrate_ms () and steal0 = steal_ticks () in
  let run, e =
    match !workload with
    | "embedded_cold" -> embedded_cold ()
    | "serve_hot" -> serve_hot ()
    | "churn_wal" -> churn_wal ()
    | w ->
        prerr_endline ("segbench: unknown workload " ^ w);
        exit 2
  in
  let attempted = run.tried + !check_attempts in
  let failed = run.lost + !check_failures in
  let failed_frac = fi failed /. fi (max 1 attempted) in
  say "failed_frac %.6f (%d of %d operations and answer checks)" failed_frac failed attempted;
  let steal_s = fi (steal_ticks () - steal0) /. 100.0 in
  say
    "provenance {\"source\": %S, \"nproc\": %d, \"ocaml\": %S, \"workload\": %S, \"seed\": %d, \
     \"seconds\": %g, \"trace\": %d, \"query_samples\": %d, \"latency_slices\": %d, \
     \"rate_slices\": %d, \"wal_fs\": %S, \"calib_ms\": [%.2f, %.2f], \"steal_s\": %.2f}"
    !source (Domain.recommended_domain_count ()) Sys.ocaml_version !workload !seed !seconds !trace
    e.samples e.lat_slices e.rate_slices
    (if !workload = "churn_wal" then fs_type !dir else "none")
    calib0 (calibrate_ms ()) steal_s;
  if traced_run then
    List.iter
      (fun (name, unit) ->
        metric name unit (Option.value (Hashtbl.find_opt layer_values name) ~default:0.0))
      layer_names
  else begin
    metric "setup_s" "s" run.setup_s;
    metric "blocks_per_query" "blocks" run.blocks_per_query;
    metric "peak_heap_mb" "MiB" (fi (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.0)
  end;
  if not traced_run then begin
    extra_metric "ops_per_s" "ops/s" e.ops_per_s;
    extra_metric "query_p50_us" "us" e.p50;
    extra_metric "query_p99_us" "us" e.p99;
    extra_metric "failed_frac" "ratio" failed_frac;
    say "issue_metrics {%s}" (json_metrics !extra)
  end;
  let correct = failed = 0 in
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed (json_metrics !metrics);
  if not correct then exit 1
