type addr = int

let null = 0

module Pool = struct
  (* The pool's view of one block: whether it is resident, whether it
     is dirty, and whose stats a write-back is charged to. Payload-free,
     so one LRU serves stores of every payload type. *)
  type slot = { mutable resident : bool; mutable dirty : bool; io : Io_stats.t }

  type t = { lru : slot Lru.t; mutable next_addr : int }

  let create ~capacity = { lru = Lru.create ~capacity; next_addr = 1 }

  let capacity t = Lru.capacity t.lru
  let resident t = Lru.length t.lru

  (* The one eviction hook: the payload stays in its store's frame (that
     frame is the block's disk copy from now on), so eviction only flips
     residency and charges a dirty write-back. *)
  let on_evict _ s =
    s.resident <- false;
    if s.dirty then begin
      s.dirty <- false;
      Io_stats.record_write s.io
    end

  let touch t a = Lru.touch t.lru a

  let insert t a s =
    s.resident <- true;
    Lru.put t.lru a s ~on_evict

  let forget t a = ignore (Lru.remove t.lru a)

  let hits t = Lru.hits t.lru
  let misses t = Lru.misses t.lru
  let note_miss t = Lru.note_miss t.lru
  let reset_stats t = Lru.reset_stats t.lru
end

module Make (P : sig
  type t
end) =
struct
  type frame = { mutable payload : P.t; slot : Pool.slot }

  type t = {
    name : string;
    uid : int; (* distinguishes stores inside a shared read context *)
    pool : Pool.t;
    io : Io_stats.t;
    frames : (addr, frame) Hashtbl.t; (* every live block, resident or not *)
  }

  let create ?(name = "store") ~pool ~stats () =
    { name; uid = Read_context.fresh_uid (); pool; io = stats; frames = Hashtbl.create 16 }

  (* Mutators refuse to run under a read context: queries that sneak in
     an alloc/write/free are a purity bug, and this is where it trips. *)
  let guard_writer t op =
    if Read_context.active () <> None then
      invalid_arg
        (Printf.sprintf "Block_store(%s): %s under a read context (queries must not mutate)"
           t.name op)

  let fail_unknown t a =
    invalid_arg (Printf.sprintf "Block_store(%s): unknown or freed address %d" t.name a)

  let lookup t a =
    match Hashtbl.find t.frames a with f -> f | exception Not_found -> fail_unknown t a

  let alloc t payload =
    guard_writer t "alloc";
    let a = t.pool.Pool.next_addr in
    t.pool.Pool.next_addr <- a + 1;
    Io_stats.record_alloc t.io;
    let slot = { Pool.resident = false; dirty = true; io = t.io } in
    Hashtbl.add t.frames a { payload; slot };
    Pool.insert t.pool a slot;
    a

  (* Read under an installed context: the shared pool, shared stats and
     this store's frames are consulted read-only and never modified, so
     any number of domains may run this concurrently (writers excluded
     by the reader/writer contract). A block resident in the shared pool
     is free, exactly as in the serial model; a disk block charges one
     read to the *reader's* stats and lands in the reader's own LRU
     shard, so each reader pays its own cold misses. A resident block is
     added to the shard too, so the next access is a local hit rather
     than a recounted miss. *)
  let read_via t ctx a =
    match Read_context.find ctx ~uid:t.uid ~addr:a with
    | Some payload -> (Obj.obj payload : P.t)
    | None ->
        let f = lookup t a in
        if not f.slot.resident then Io_stats.record_read (Read_context.stats ctx);
        Read_context.add ctx ~uid:t.uid ~addr:a (Obj.repr f.payload);
        f.payload

  let read t a =
    (* block-fetch granularity for cooperative cancellation: an
       expired request stops here instead of scanning to completion *)
    Cancel.poll ();
    match Read_context.active () with
    | Some ctx -> read_via t ctx a
    | None ->
        let f = lookup t a in
        if f.slot.resident then Pool.touch t.pool a
        else begin
          Pool.note_miss t.pool;
          Io_stats.record_read t.io;
          Pool.insert t.pool a f.slot
        end;
        f.payload

  let write t a payload =
    guard_writer t "write";
    let f = lookup t a in
    f.payload <- payload;
    f.slot.dirty <- true;
    if f.slot.resident then Pool.touch t.pool a
    else
      (* Full-block overwrite: the old contents are not needed, so no
         read is charged; the write is charged at eviction/flush. *)
      Pool.insert t.pool a f.slot

  let free t a =
    guard_writer t "free";
    let f = lookup t a in
    Hashtbl.remove t.frames a;
    if f.slot.resident then begin
      f.slot.resident <- false;
      Pool.forget t.pool a
    end

  (* Only resident blocks can be dirty: eviction writes back and cleans. *)
  let flush t =
    guard_writer t "flush";
    Hashtbl.iter
      (fun _ f ->
        if f.slot.dirty then begin
          Io_stats.record_write t.io;
          f.slot.dirty <- false
        end)
      t.frames

  let block_count t = Hashtbl.length t.frames

  let stats t = t.io
end
