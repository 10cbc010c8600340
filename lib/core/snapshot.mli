(** Snapshot files: the on-disk form of a built [Segdb.t].

    Layout (all integers little-endian):

    {v
    "SEGDBSNP" | version u32
    header_len u32 | header | crc32(header) u32
    sections until EOF, each: tag u8 | len u64 | crc32(payload) u32 | payload
    v}

    The header records the backend tag, block size, pool capacity,
    cascade flag and segment count, followed by a string slot that is
    written empty and ignored on read (older writers stored an
    executable digest there). The one section written is the
    {e segments} section (tag 1, mandatory): every stored segment in the
    binary layout of {!Seg_file.array_codec}. Because the index is a
    deterministic bulk build over that set, the section is the whole
    state, and [Segdb.open_db] rebuilds from it. Other tags are
    CRC-checked and skipped; files from older writers carry a marshaled
    index image as tag 2, which is ignored this way.

    Saves are atomic and durable: the file is written beside the target,
    fsynced, renamed over it, and the directory is fsynced, so a crashed
    save leaves the previous snapshot intact and a returned save
    survives a crash. *)

exception Corrupt_snapshot of string

type header = {
  backend : string;
  block : int;
  pool_blocks : int;
  cascade : bool;
  count : int;  (** segments in the segments section *)
}

type contents = { header : header; segments : Segdb_geom.Segment.t array }

val is_snapshot : string -> bool
(** Whether the file at this path starts with the snapshot magic — how
    a caller tells a snapshot from a segment file or a store file
    before opening it. [Sys_error] propagates. *)

val write : path:string -> header -> segments:Segdb_geom.Segment.t array -> unit

val read : path:string -> contents
(** Raises {!Corrupt_snapshot} on the first problem {!salvage} would
    report; every section is CRC-checked before use. [Sys_error]
    propagates. *)

val salvage : path:string -> string list * contents option
(** Best-effort read for repair, over the same walk as {!read}: returns
    findings (empty means the file is pristine) plus whatever survives.
    A damaged section other than the segments section is dropped at no
    cost, and a segment-count mismatch trusts the section; only a
    destroyed segments section (or header) loses the contents. Never
    raises on damage. *)
