exception Corrupt_store of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt_store m)) fmt

let magic = "SEGFST01"

let is_store path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try really_input_string ic (String.length magic) = magic with End_of_file -> false)

(* Version 2 added the per-page payload CRC to the header. Version 1
   images carry no page checksums, so reading them with this build
   would defeat the corruption guarantees — they are rejected with a
   migration message instead of silently trusted. *)
let version = 2
let header_bytes = 13 (* kind u8 | next u32 | len u32 | crc u32 *)
let crc_prefix = 9 (* the header bytes the page CRC covers *)
let kind_free = 0
let kind_head = 1
let kind_cont = 2

(* ---------------- raw file I/O ----------------

   All syscalls go through {!Failpoint.Io}: transient EINTR/EAGAIN/EIO
   are retried with backoff (counted as [io.retries]), persistent
   short writes error out, and every call is a registered fault
   site. *)

let pread = Failpoint.Io.pread
let pwrite = Failpoint.Io.pwrite
let sp_sync = Failpoint.site "store.sync"

(* magic 8 | version u32 | page_size u32 | next_page u32 | root u32 | crc u32 *)
let superblock_len = 8 + (4 * 4) + 4

(* ---------------- offline scrub ----------------

   The page format is payload-agnostic, so a store file can be checked
   without knowing its codec: superblock magic/version/CRC, every
   page's header sanity and payload CRC, chain reachability (no
   escapes, no double claims, heads chain through continuations), and
   the root's liveness. Findings are reported, never raised — a scrub
   is diagnosis, not failure. *)

module Scrub = struct
  let file path =
    let findings = ref [] in
    let note fmt = Printf.ksprintf (fun m -> findings := m :: !findings) fmt in
    (try
       let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           let sb = Bytes.create superblock_len in
           if pread fd ~off:0 sb < superblock_len then
             note "superblock: file too short"
           else begin
             let s = Bytes.to_string sb in
             let sane = ref true in
             let bad fmt = Printf.ksprintf (fun m -> sane := false; note "%s" m) fmt in
             if String.sub s 0 8 <> magic then bad "superblock: bad magic";
             let r = Codec.R.of_string ~pos:8 s in
             let ver = Codec.R.u32 r in
             if !sane && ver <> version then
               bad "superblock: version %d (this build reads %d)" ver version;
             let page_size = Codec.R.u32 r in
             let next_page = Codec.R.u32 r in
             let root = Codec.R.u32 r in
             let crc = Codec.R.u32 r in
             if !sane && Crc.string (String.sub s 0 (superblock_len - 4)) <> crc then
               bad "superblock: CRC mismatch";
             if !sane && page_size < 64 then
               bad "superblock: implausible page size %d" page_size;
             if !sane then begin
               (* one pass over the headers, CRC-checking every page *)
               let headers = Array.make next_page None in
               for p = 1 to next_page - 1 do
                 let page = Bytes.create page_size in
                 let got = pread fd ~off:(p * page_size) page in
                 if got < header_bytes then note "page %d: short read (%d bytes)" p got
                 else begin
                   let s = Bytes.to_string page in
                   let r = Codec.R.of_string s in
                   let kind = Codec.R.u8 r in
                   let next = Codec.R.u32 r in
                   let len = Codec.R.u32 r in
                   let crc = Codec.R.u32 r in
                   if kind > kind_cont then note "page %d: unknown kind %d" p kind
                   else if len > page_size - header_bytes then
                     note "page %d: payload overflows the page" p
                   else if got < header_bytes + len then
                     note "page %d: short read (%d bytes)" p got
                   else if
                     Crc.string (String.sub s 0 crc_prefix ^ String.sub s header_bytes len)
                     <> crc
                   then note "page %d: CRC mismatch" p
                   else headers.(p) <- Some (kind, next)
                 end
               done;
               (* chain walk: claimed pages vs the free/continuation pool *)
               let claimed = Array.make next_page false in
               for p = 1 to next_page - 1 do
                 match headers.(p) with
                 | Some (kind, next) when kind = kind_head ->
                     claimed.(p) <- true;
                     let q = ref next in
                     let stop = ref false in
                     while !q <> 0 && not !stop do
                       if !q <= 0 || !q >= next_page then begin
                         note "chain from page %d escapes the file at %d" p !q;
                         stop := true
                       end
                       else if claimed.(!q) then begin
                         note "page %d claimed by two extents" !q;
                         stop := true
                       end
                       else begin
                         claimed.(!q) <- true;
                         match headers.(!q) with
                         | Some (kind, next) when kind = kind_cont -> q := next
                         | Some (kind, _) ->
                             note "chain from page %d reaches page %d of kind %d" p !q
                               kind;
                             stop := true
                         | None ->
                             note "chain from page %d reaches damaged page %d" p !q;
                             stop := true
                       end
                     done
                 | _ -> ()
               done;
               if
                 root <> Block_store.null
                 && (root < 1 || root >= next_page
                    ||
                    match headers.(root) with
                    | Some (kind, _) -> kind <> kind_head
                    | None -> true)
               then note "root %d is not a live block" root
             end
           end)
     with
    | Failpoint.Injected_crash _ as e -> raise e
    | e -> note "scrub failed: %s" (Printexc.to_string e));
    List.rev !findings
end

module Make (P : sig
  type t

  val codec : t Codec.t
end) =
struct
  let c_page_read = Probe.counter "file_store.page_read"
  let c_page_write = Probe.counter "file_store.page_write"
  let c_corrupt = Probe.counter "io.corrupt_pages"

  type frame = { mutable payload : P.t; mutable dirty : bool }

  type t = {
    name : string;
    uid : int; (* distinguishes stores inside a shared read context *)
    path : string;
    fd : Unix.file_descr;
    page_size : int;
    io : Io_stats.t;
    cache : frame Lru.t;
    extents : (int, int list) Hashtbl.t; (* head page -> pages of the extent *)
    mutable free_pages : int list;
    mutable tombstones : int list; (* freed heads whose on-disk header is stale *)
    mutable next_page : int;
    mutable root : Block_store.addr;
    mutable closed : bool;
  }

  let payload_capacity t = t.page_size - header_bytes

  (* ---------------- superblock ---------------- *)

  let write_superblock t =
    let b = Buffer.create superblock_len in
    Buffer.add_string b magic;
    Codec.W.u32 b version;
    Codec.W.u32 b t.page_size;
    Codec.W.u32 b t.next_page;
    Codec.W.u32 b t.root;
    Codec.W.u32 b (Crc.string (Buffer.contents b));
    let page = Bytes.make t.page_size '\000' in
    Bytes.blit_string (Buffer.contents b) 0 page 0 (Buffer.length b);
    pwrite t.fd ~off:0 page

  let read_superblock fd path =
    let buf = Bytes.create superblock_len in
    if pread fd ~off:0 buf < superblock_len then
      corrupt "%s: file too short for a superblock" path;
    let s = Bytes.to_string buf in
    if String.sub s 0 8 <> magic then corrupt "%s: bad magic" path;
    let r = Codec.R.of_string ~pos:8 s in
    let ver = Codec.R.u32 r in
    if ver <> version then
      corrupt
        "%s: store format version %d unsupported (this build reads version %d; \
         re-create the file with `save` from a live database to migrate)"
        path ver version;
    let page_size = Codec.R.u32 r in
    let next_page = Codec.R.u32 r in
    let root = Codec.R.u32 r in
    let crc = Codec.R.u32 r in
    if Crc.string (String.sub s 0 (superblock_len - 4)) <> crc then
      corrupt "%s: superblock CRC mismatch" path;
    (page_size, next_page, root)

  (* ---------------- page primitives ---------------- *)

  let read_page_header t p =
    let buf = Bytes.create header_bytes in
    if pread t.fd ~off:(p * t.page_size) buf < header_bytes then (kind_free, 0, 0)
    else
      let s = Bytes.to_string buf in
      let r = Codec.R.of_string s in
      let kind = Codec.R.u8 r in
      let next = Codec.R.u32 r in
      let len = Codec.R.u32 r in
      (kind, next, len)

  let write_page t p ~kind ~next ~chunk =
    let page = Bytes.make t.page_size '\000' in
    let b = Buffer.create header_bytes in
    Codec.W.u8 b kind;
    Codec.W.u32 b next;
    Codec.W.u32 b (String.length chunk);
    (* The page CRC covers the header-so-far plus the payload, so a
       flipped kind/next/len byte is caught, not just payload damage. *)
    Codec.W.u32 b (Crc.string (Buffer.contents b ^ chunk));
    Bytes.blit_string (Buffer.contents b) 0 page 0 header_bytes;
    Bytes.blit_string chunk 0 page header_bytes (String.length chunk);
    pwrite t.fd ~off:(p * t.page_size) page

  let alloc_page t =
    match t.free_pages with
    | p :: rest ->
        t.free_pages <- rest;
        p
    | [] ->
        let p = t.next_page in
        t.next_page <- p + 1;
        p

  (* ---------------- write-back ---------------- *)

  let split_chunks t s =
    let cap = payload_capacity t in
    let len = String.length s in
    let n = max 1 ((len + cap - 1) / cap) in
    List.init n (fun i -> String.sub s (i * cap) (min cap (len - (i * cap))))

  let write_back t a (frame : frame) =
    let chunks = split_chunks t (Codec.encode P.codec frame.payload) in
    let owned = try Hashtbl.find t.extents a with Not_found -> [ a ] in
    let rec assign chunks owned acc =
      match (chunks, owned) with
      | [], surplus ->
          t.free_pages <- surplus @ t.free_pages;
          List.rev acc
      | c :: cs, [] -> assign cs [] ((alloc_page t, c) :: acc)
      | c :: cs, p :: ps -> assign cs ps ((p, c) :: acc)
    in
    let pages = assign chunks owned [] in
    let rec emit = function
      | [] -> ()
      | (p, chunk) :: rest ->
          let kind = if p = a then kind_head else kind_cont in
          let next = match rest with [] -> 0 | (q, _) :: _ -> q in
          write_page t p ~kind ~next ~chunk;
          Io_stats.record_write t.io;
          Probe.bump c_page_write;
          emit rest
    in
    emit pages;
    Hashtbl.replace t.extents a (List.map fst pages)

  let on_evict t a frame = if frame.dirty then write_back t a frame

  (* ---------------- construction ---------------- *)

  let create ?(name = "file-store") ?(page_size = 4096) ?(cache_blocks = 64) ~stats ~path
      () =
    if page_size < 64 then invalid_arg "File_store.create: page_size must be >= 64";
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let t =
      {
        name;
        uid = Read_context.fresh_uid ();
        path;
        fd;
        page_size;
        io = stats;
        cache = Lru.create ~capacity:cache_blocks;
        extents = Hashtbl.create 1024;
        free_pages = [];
        tombstones = [];
        next_page = 1;
        root = Block_store.null;
        closed = false;
      }
    in
    write_superblock t;
    t

  let open_existing ?(name = "file-store") ?(cache_blocks = 64) ~stats ~path () =
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    let page_size, next_page, root =
      try read_superblock fd path
      with e ->
        Unix.close fd;
        raise e
    in
    let t =
      {
        name;
        uid = Read_context.fresh_uid ();
        path;
        fd;
        page_size;
        io = stats;
        cache = Lru.create ~capacity:cache_blocks;
        extents = Hashtbl.create 1024;
        free_pages = [];
        tombstones = [];
        next_page;
        root;
        closed = false;
      }
    in
    (* Rebuild the directory: heads are pages whose header says so; an
       extent is the chain from its head; everything unreachable is
       free. The scan reads headers only and is not charged — it is
       metadata, not block transfers. *)
    let owned = Hashtbl.create 1024 in
    (try
       for p = 1 to next_page - 1 do
         let kind, next, _ = read_page_header t p in
         if kind = kind_head then begin
           let pages = ref [ p ] in
           Hashtbl.replace owned p ();
           let q = ref next in
           while !q <> 0 do
             if !q <= 0 || !q >= next_page then
               corrupt "%s: chain from page %d escapes the file at %d" path p !q;
             if Hashtbl.mem owned !q then
               corrupt "%s: page %d claimed by two extents" path !q;
             Hashtbl.replace owned !q ();
             pages := !q :: !pages;
             let kind, next, _ = read_page_header t !q in
             if kind <> kind_cont then
               corrupt "%s: page %d in a chain is not a continuation" path !q;
             q := next
           done;
           Hashtbl.replace t.extents p (List.rev !pages)
         end
       done
     with e ->
       Unix.close fd;
       raise e);
    let free = ref [] in
    for p = next_page - 1 downto 1 do
      if not (Hashtbl.mem owned p) then free := p :: !free
    done;
    t.free_pages <- !free;
    t

  (* ---------------- the Block_store contract ---------------- *)

  let fail_unknown t a =
    invalid_arg (Printf.sprintf "File_store(%s): unknown or freed address %d" t.name a)

  let check_open t = if t.closed then invalid_arg "File_store: handle is closed"

  (* Same purity contract as {!Block_store}: mutators refuse to run
     under a read context. *)
  let guard_writer t op =
    if Read_context.active () <> None then
      invalid_arg
        (Printf.sprintf "File_store(%s): %s under a read context (queries must not mutate)"
           t.name op)

  let insert_frame t a frame =
    Lru.put t.cache a frame ~on_evict:(fun addr f -> on_evict t addr f)

  let alloc t payload =
    check_open t;
    guard_writer t "alloc";
    let a = alloc_page t in
    Io_stats.record_alloc t.io;
    Hashtbl.replace t.extents a [ a ];
    insert_frame t a { payload; dirty = true };
    a

  let fetch t ~io a =
    Probe.span t.io "file.fetch" @@ fun () ->
    let pages = try Hashtbl.find t.extents a with Not_found -> fail_unknown t a in
    let buf = Buffer.create (List.length pages * payload_capacity t) in
    let corrupt_page p msg =
      Probe.bump c_corrupt;
      corrupt "%s: page %d %s" t.path p msg
    in
    List.iter
      (fun p ->
        let page = Bytes.create t.page_size in
        let got = pread t.fd ~off:(p * t.page_size) page in
        if got < header_bytes then
          corrupt_page p (Printf.sprintf "short read (%d bytes)" got);
        let s = Bytes.to_string page in
        let r = Codec.R.of_string s in
        let _kind = Codec.R.u8 r in
        let _next = Codec.R.u32 r in
        let len = Codec.R.u32 r in
        let crc = Codec.R.u32 r in
        if len > payload_capacity t then corrupt_page p "payload overflows";
        if got < header_bytes + len then
          corrupt_page p (Printf.sprintf "short read (%d bytes)" got);
        if Crc.string (String.sub s 0 crc_prefix ^ String.sub s header_bytes len) <> crc
        then corrupt_page p "CRC mismatch";
        Buffer.add_substring buf s header_bytes len;
        Io_stats.record_read io;
        Probe.bump c_page_read)
      pages;
    try Codec.decode P.codec (Buffer.contents buf)
    with Codec.Corrupt m -> corrupt "%s: block %d does not decode: %s" t.path a m

  (* Reads under a context leave the handle's cache untouched (no
     recency update, no frame insertion) and charge page reads to the
     reader. The handle itself is still single-domain — the fd's seek
     pointer is shared — so File_store readers isolate *accounting*,
     not domains; parallel readers each open their own handle. *)
  let read_via t ctx a =
    match Read_context.find ctx ~uid:t.uid ~addr:a with
    | Some payload -> (Obj.obj payload : P.t)
    | None -> (
        match Lru.peek t.cache a with
        | Some frame -> frame.payload
        | None ->
            let payload = fetch t ~io:(Read_context.stats ctx) a in
            Read_context.add ctx ~uid:t.uid ~addr:a (Obj.repr payload);
            payload)

  let read t a =
    check_open t;
    (* same cooperative cancellation point as [Block_store.read]: one
       poll per block fetch *)
    Cancel.poll ();
    if not (Hashtbl.mem t.extents a) then fail_unknown t a;
    match Read_context.active () with
    | Some ctx -> read_via t ctx a
    | None -> (
        match Lru.find t.cache a with
        | Some frame -> frame.payload
        | None ->
            let payload = fetch t ~io:t.io a in
            insert_frame t a { payload; dirty = false };
            payload)

  let write t a payload =
    check_open t;
    guard_writer t "write";
    if not (Hashtbl.mem t.extents a) then fail_unknown t a;
    match Lru.find t.cache a with
    | Some frame ->
        frame.payload <- payload;
        frame.dirty <- true
    | None ->
        (* Full-block overwrite: no read charged; the write is charged at
           eviction/flush, as in the in-memory store. *)
        insert_frame t a { payload; dirty = true }

  let free t a =
    check_open t;
    guard_writer t "free";
    match Hashtbl.find_opt t.extents a with
    | None -> fail_unknown t a
    | Some pages ->
        Hashtbl.remove t.extents a;
        ignore (Lru.remove t.cache a);
        t.free_pages <- pages @ t.free_pages;
        t.tombstones <- a :: t.tombstones

  let flush t =
    check_open t;
    guard_writer t "flush";
    Lru.iter t.cache (fun a frame ->
        if frame.dirty then begin
          write_back t a frame;
          frame.dirty <- false
        end)

  let sync t =
    flush t;
    List.iter
      (fun p ->
        (* tombstone: the page may have been reused by a new extent
           already, in which case its header is current, not stale *)
        if not (List.mem p t.free_pages) then ()
        else write_page t p ~kind:kind_free ~next:0 ~chunk:"")
      t.tombstones;
    t.tombstones <- [];
    write_superblock t;
    Failpoint.Io.fsync ~site:sp_sync t.fd

  let close t =
    if not t.closed then begin
      sync t;
      t.closed <- true;
      Unix.close t.fd
    end

  let block_count t = Hashtbl.length t.extents
  let stats t = t.io

  let set_root t a =
    check_open t;
    t.root <- a

  let root t = t.root
  let path t = t.path
  let page_size t = t.page_size

  let page_count t = t.next_page

  let verify t =
    check_open t;
    sync t;
    Scrub.file t.path

  (* Simulates the process dying while this handle is live: the fd is
     closed with nothing flushed, so the on-disk image is whatever the
     last {!sync} (plus any evictions) left behind. *)
  let crash t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end
