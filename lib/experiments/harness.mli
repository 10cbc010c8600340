open Segdb_io

(** Shared machinery of the experiment suite (EXPERIMENTS.md).

    Experiments measure I/O by snapshotting a structure's {!Io_stats}
    counter around each operation; builds are excluded unless an
    experiment measures them explicitly. Parameters follow one global
    convention: seed 42 unless varied, block size [B = 64], a 16-block
    buffer pool (small relative to every index measured, so counts
    reflect traversals, not caching). *)

type params = {
  seed : int;
  quick : bool; (** smaller sweeps for smoke runs *)
}

val default : params
val quick : params

val sweep_n : params -> int list
(** Database sizes: powers of two, [2^10 .. 2^17] (quick: [.. 2^13]). *)

type output =
  | Table of Segdb_util.Table.t
  | Chart of string  (** pre-rendered ASCII chart *)

type cost = {
  queries : int;
  mean_io : float; (** mean I/Os (reads + writes) per operation *)
  max_io : float;
  mean_out : float; (** mean output size *)
}

val measure : io:Io_stats.t -> queries:'q array -> run:('q -> int) -> cost
(** Runs every query, charging its I/O delta; [run] returns the output
    size. *)

val cost_cells : cost -> string list
(** [mean_io; max_io; mean_out] formatted. *)

val pool_blocks : int
val block : int

val log2 : float -> float
