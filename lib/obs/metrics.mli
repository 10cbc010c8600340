(** Named metrics: counters, gauges and log-bucketed histograms.

    One {!t} is a registry; {!default} is the process-wide one that the
    I/O stack's probe sites record into. Handles ([counter], [gauge])
    are resolved once and bumped with a single atomic add, so a probe
    behind {!Control.enabled} costs nothing measurable when off and a
    couple of atomic operations when on.

    Registries are mergeable ({!merge_into}): parallel query workers
    record into private registries or histograms and the coordinator
    folds them into one view; merging is associative, so the fold order
    does not matter. *)

type t

type counter = int Atomic.t
type gauge = int Atomic.t

val create : unit -> t

val default : t
(** The process-wide registry used by built-in instrumentation. *)

val counter : t -> string -> counter
(** Get-or-create; the handle stays valid for the registry's life. *)

val gauge : t -> string -> gauge

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set_gauge : gauge -> int -> unit

val observe : t -> string -> int -> unit
(** Records one sample into the named histogram (created on first use).
    Thread-safe: serialized on the registry lock. *)

val observe_pair : t -> string -> names:(string -> string * string) -> int -> int -> unit
(** [observe_pair t key ~names a b] records [a] and [b] into the two
    histograms that [names key] names, under one lock. The pair is
    resolved on [key]'s first use and memoized, so later calls build no
    name and do one table lookup: the cheap path for a hot caller with
    a small, fixed set of keys. A key must always come with the same
    [names]. *)

val merge_histogram : t -> string -> Histogram.t -> unit
(** Folds a privately-recorded histogram into the named one — the
    cheap way for a worker to publish many samples at once. *)

val histogram : t -> string -> Histogram.t option
(** A copy of the named histogram, if it exists. *)

val counters : t -> (string * int) list
(** Name-sorted snapshot. *)

val gauges : t -> (string * int) list
val histograms : t -> (string * Histogram.t) list

val merge_into : into:t -> t -> unit
(** Adds counters and gauges by name and merges histograms pointwise;
    [src] is unchanged. *)

val reset : t -> unit
(** Zeroes every metric, keeping handles valid. *)
