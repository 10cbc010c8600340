(** Background time-series sampler over the metrics registry.

    The registry ({!Metrics.default}) only accumulates monotone totals;
    operators want {e rates} — queries/s, bytes/s, WAL appends/s — and
    a short window of history to spot trends. The sampler closes that
    gap: a dedicated domain snapshots the registry every [interval_ms]
    into a bounded ring, diffs consecutive snapshots into per-second
    rates, and publishes the results back into the registry as gauge
    families ([rate.<counter>.per_s], [window.<histogram>.p99]) so any
    exporter — the Prometheus endpoint, the wire stats frame — carries
    them with no extra plumbing.

    Default-off discipline: nothing runs until {!start}; when disarmed
    the only residual cost anywhere is one atomic load ({!running}),
    with no allocation — the same contract as {!Control}.

    Layering: [lib/obs] sits below the net and exec layers, so the
    sampler cannot read replication state or pool occupancy itself.
    Higher layers {!register_source} a closure instead; every tick (and
    every {!refresh_gauges}) runs the registered sources and publishes
    whatever gauges they return. Built-in runtime gauges
    ([runtime.heap_words], [runtime.minor_collections],
    [runtime.major_collections], [runtime.open_fds]) ride along. *)

type sample = {
  at_ns : int;  (** monotonic timestamp ({!Trace.now_ns}) *)
  counters : (string * int) list;  (** name-sorted registry snapshot *)
  gauges : (string * int) list;
  hists : (string * int array) list;
      (** per-bucket counts of the watched histograms (see
          {!set_watched}) — cumulative, diffable *)
}

val register_source : string -> (unit -> (string * int) list) -> unit
(** [register_source name f] adds a gauge provider: on every tick and
    {!refresh_gauges}, [f ()] runs and each [(gauge_name, value)] pair
    is published into {!Metrics.default}. Re-registering a name
    replaces the previous source. [f] runs on the sampler domain (or
    whichever domain calls {!refresh_gauges}) and must be thread-safe;
    an exception from [f] skips that source for the tick. *)

val unregister_source : string -> unit

val refresh_gauges : unit -> unit
(** One synchronous provider pass — runtime gauges plus every
    registered source — with no ring append. Exporters call this right
    before rendering so a scrape sees live gauges even when the
    background sampler is not running. *)

val set_capacity : int -> unit
(** Ring bound (number of retained samples, default 120, min 2).
    Shrinking drops the oldest samples immediately. *)

val set_watched : string list -> unit
(** Histogram names whose buckets are carried in each sample (so
    windowed percentiles can be diffed out). Default:
    [["exec.request.ns"; "net.request.ns"]]. *)

val tick : ?now_ns:int -> unit -> unit
(** One sampling pass: refresh gauges, snapshot the registry, append to
    the ring, recompute rates against the previous sample and publish
    the [rate.*]/[window.*] gauge families. The background domain calls
    this every interval; tests call it directly with a pinned [now_ns]
    for deterministic rate arithmetic. A counter that moved backwards
    (a registry {!Metrics.reset}) clamps to rate 0 rather than going
    negative. *)

val start : ?interval_ms:int -> unit -> unit
(** Arm the sampler: spawn the background domain ticking every
    [interval_ms] (default 1000, min 1). Idempotent while running
    (the interval of the live domain is not changed). *)

val stop : unit -> unit
(** Disarm and join the background domain. Idempotent. The ring and
    rates are kept (a dashboard can still read the last window). *)

val running : unit -> bool
(** One atomic load; [false] by default. *)

val interval_ms : unit -> int

val samples : unit -> sample list
(** Ring contents, oldest first. *)

val rates : unit -> (string * float) list
(** Latest per-second rate for every counter, from the last two ticks;
    empty before two samples exist. *)

val percentile_of_buckets : int array -> float -> float option
(** [percentile_of_buckets b p]: the [p]-quantile ([p] in [[0, 1]]) of
    a per-bucket count array laid out as {!Histogram.buckets}, by
    walking to the landing bucket and interpolating linearly inside its
    {!Histogram.bucket_bounds} (bucket 0 counts from 0). [None] when
    every count is 0. *)

val diff_buckets : int array -> int array -> int array
(** [diff_buckets newer older]: the per-bucket counts recorded between
    two snapshots of one histogram, clamped at 0 (a registry reset
    reads as an empty window, not negative counts). Missing trailing
    entries of [older] count as 0. *)

val window_p99 : string -> float option
(** The p99 of a watched histogram over the retained window (newest
    ring entry minus oldest), interpolated within the landing bucket.
    [None] if the histogram is absent or the window holds no samples. *)

val varz_json : unit -> string
(** The whole ring plus current rates as one JSON object — what the
    HTTP endpoint serves at [/varz]. *)
