(** File-backed secondary storage: the {!Block_store} contract over a
    real file.

    The store divides the file into fixed-size pages. Page 0 is the
    superblock (magic, version, page size, page count, a root-address
    slot, CRC); every other page carries a 13-byte header — kind, next
    page, payload length, and a CRC-32 over header and payload — and
    payload bytes. The CRC is verified on every page fetch (i.e. on
    cache miss), so a flipped bit anywhere in a live page surfaces as
    {!Corrupt_store} at read time, before damaged bytes reach a codec;
    detections count into [Segdb_obs.Metrics] as [io.corrupt_pages].
    A block is an {e extent}: a chain of one or more pages whose
    first page number is the block's address, so addresses are stable
    across payload growth and across process restarts. Payloads are
    encoded with the per-payload {!Codec}; payloads larger than one page
    spill into continuation pages, and a free list recycles pages from
    freed or shrunken extents.

    A bounded LRU cache of {e decoded} payloads fronts the file, exactly
    like the buffer pool of the in-memory {!Block_store}, and the same
    accounting applies: a cache miss charges one read per page fetched
    ([pread]), a dirty eviction or flush charges one write per page
    written ([pwrite]), resident accesses are free. With payloads that
    fit one page the counters match the in-memory store's line for line
    — the paper's I/O counts become counts of real syscalls.

    Durability: {!sync} (and {!close}) makes the file reflect the
    logical contents — payloads, tombstones of freed blocks, superblock
    — and fsyncs. Between syncs the on-disk image may be stale; crash
    recovery of acknowledged updates is the {!Wal}'s job, not this
    module's. Metadata writes at sync (tombstones, superblock) are not
    charged as block transfers. *)

exception Corrupt_store of string
(** Raised by {!Make.open_existing} on a bad magic, version, or
    superblock CRC or page chain — and by {!Make.read} when a fetched
    page fails its CRC or header sanity checks. *)

val is_store : string -> bool
(** Whether the file at this path starts with the store's superblock
    magic. [Sys_error] propagates. *)

(** Offline integrity check of a store file, without its codec.

    Verifies the superblock, every page's header sanity and CRC
    (including free pages: tombstoning writes them with a valid
    checksum), the chain structure (no escapes, double claims, or
    chains through non-continuation pages), and the root's liveness.
    Orphaned continuation pages from freed extents keep their stale
    but valid headers and are deliberately {e not} findings — a
    freshly {!Make.sync}'d store always scrubs clean. *)
module Scrub : sig
  val file : string -> string list
  (** Findings, in file order; [[]] means clean. Diagnoses rather than
      raises: any I/O error becomes a finding. *)
end

module Make (P : sig
  type t

  val codec : t Codec.t
end) : sig
  type t

  val create :
    ?name:string ->
    ?page_size:int ->
    ?cache_blocks:int ->
    stats:Io_stats.t ->
    path:string ->
    unit ->
    t
  (** Creates (truncating) [path]. [page_size] defaults to 4096 bytes,
      [cache_blocks] — the LRU capacity in blocks — to 64. *)

  val open_existing :
    ?name:string -> ?cache_blocks:int -> stats:Io_stats.t -> path:string -> unit -> t
  (** Opens an existing store, rebuilding the live-block directory and
      free list from the page headers. The page size is read from the
      superblock. Raises {!Corrupt_store} on a damaged file, and on
      images of an older format version (version 1 pages carry no
      CRCs) with a message telling the user to re-[save]. *)

  (** The {!Block_store} contract: *)

  val alloc : t -> P.t -> Block_store.addr
  val read : t -> Block_store.addr -> P.t
  val write : t -> Block_store.addr -> P.t -> unit
  val free : t -> Block_store.addr -> unit
  val flush : t -> unit
  val block_count : t -> int
  val stats : t -> Io_stats.t

  (** File lifecycle: *)

  val sync : t -> unit
  (** {!flush}, then persist tombstones and the superblock, then
      [fsync]. *)

  val close : t -> unit
  (** {!sync}, then close the descriptor. The handle must not be used
      afterwards. *)

  val set_root : t -> Block_store.addr -> unit
  (** Stores a distinguished address in the superblock (persisted at
      {!sync}) so a structure can find its entry point on reopen. *)

  val root : t -> Block_store.addr

  val path : t -> string
  val page_size : t -> int

  val page_count : t -> int
  (** Pages in the file, superblock included: the file's size in
      pages. *)

  val verify : t -> string list
  (** {!sync}, then {!Scrub.file} the underlying file: [[]] means the
      on-disk image is clean. *)

  val crash : t -> unit
  (** Test hook: abandons the handle as if the process died — nothing
      is flushed or synced, the descriptor is closed, and the handle
      refuses further use. The file keeps whatever the last {!sync}
      and cache evictions made durable. *)
end
