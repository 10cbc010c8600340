open Segdb_io

exception Corrupt_snapshot of string

let magic = "SEGDBSNP"
let version = 1
let sp_write = Failpoint.site "snapshot.write"
let tag_segments = 1

let is_snapshot path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try really_input_string ic (String.length magic) = magic with End_of_file -> false)

type header = {
  backend : string;
  block : int;
  pool_blocks : int;
  cascade : bool;
  count : int;
}

type contents = { header : header; segments : Segdb_geom.Segment.t array }

(* The header ends in a string slot that older writers filled with an
   executable digest. It is written empty and read then discarded, so
   the format stays at version 1 in both directions. *)
let header_codec : header Codec.t =
  {
    write =
      (fun b h ->
        Codec.W.str b h.backend;
        Codec.W.u32 b h.block;
        Codec.W.u32 b h.pool_blocks;
        Codec.bool.write b h.cascade;
        Codec.W.u64 b h.count;
        Codec.W.str b "");
    read =
      (fun r ->
        let backend = Codec.R.str r in
        let block = Codec.R.u32 r in
        let pool_blocks = Codec.R.u32 r in
        let cascade = Codec.bool.read r in
        let count = Codec.R.u64 r in
        ignore (Codec.R.str r);
        { backend; block; pool_blocks; cascade; count });
  }

let write_section b tag payload =
  Codec.W.u8 b tag;
  Codec.W.u64 b (String.length payload);
  Codec.W.u32 b (Crc.string payload);
  Buffer.add_string b payload

let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> Failpoint.Io.fsync fd)

let write ~path header ~segments =
  let b = Buffer.create (4096 + (48 * Array.length segments)) in
  Buffer.add_string b magic;
  Codec.W.u32 b version;
  let hp = Codec.encode header_codec header in
  Codec.W.u32 b (String.length hp);
  Buffer.add_string b hp;
  Codec.W.u32 b (Crc.string hp);
  write_section b tag_segments (Codec.encode Seg_file.array_codec segments);
  (* write to a temp file, fsync, then rename: a crashed save never
     clobbers the previous snapshot *)
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Failpoint.Io.write_all ~site:sp_write fd ~off:0 (Buffer.to_bytes b);
      Failpoint.Io.fsync fd);
  Sys.rename tmp path;
  (* the rename is durable only once the directory is: a checkpoint
     empties the log right after this returns, and must not leave the
     old snapshot beside an empty log after a crash *)
  fsync_dir path

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The one walk over magic, version, header and sections, behind both
   {!read} and {!salvage}. Every problem goes to [note]. [read]'s note
   raises, so the walk ends at the first problem; [salvage]'s records
   it and the walk goes on as far as the damage allows: a section with
   a bad CRC is dropped, a truncated section table keeps the sections
   before the cut, and a segment-count mismatch trusts the section. *)
let walk ~note data =
  let note fmt = Printf.ksprintf note fmt in
  let r = Codec.R.of_string data in
  if (try Codec.R.raw r 8 <> magic with Codec.Corrupt _ -> true) then begin
    note "not a segdb snapshot (bad magic)";
    None
  end
  else
    match
      let ver = Codec.R.u32 r in
      if ver <> version then note "unsupported snapshot version %d" ver;
      let hlen = Codec.R.u32 r in
      let hp = Codec.R.raw r hlen in
      let hcrc = Codec.R.u32 r in
      if Crc.string hp <> hcrc then begin
        note "header CRC mismatch";
        None
      end
      else Some (Codec.decode header_codec hp)
    with
    | exception Codec.Corrupt m ->
        note "malformed header: %s" m;
        None
    | None -> None
    | Some header -> (
        let segments = ref None in
        (try
           while Codec.R.remaining r > 0 do
             let tag = Codec.R.u8 r in
             let len = Codec.R.u64 r in
             let crc = Codec.R.u32 r in
             let payload = Codec.R.raw r len in
             if Crc.string payload <> crc then note "section %d: CRC mismatch" tag
             else if tag = tag_segments then segments := Some payload
             (* other tags are skipped: forward compatibility, and the
                index image that older writers appended as tag 2 *)
           done
         with Codec.Corrupt m -> note "truncated section table: %s" m);
        match !segments with
        | None ->
            note "no intact segments section";
            None
        | Some payload -> (
            match Codec.decode Seg_file.array_codec payload with
            | exception Codec.Corrupt m ->
                note "segments section does not decode: %s" m;
                None
            | segments ->
                if Array.length segments <> header.count then
                  note "header says %d segments, section holds %d" header.count
                    (Array.length segments);
                Some { header; segments }))

let read ~path =
  let fail m = raise (Corrupt_snapshot (path ^ ": " ^ m)) in
  match walk ~note:fail (load path) with
  | Some c -> c
  | None -> fail "no contents" (* unreachable: the walk notes before giving up *)

let salvage ~path =
  let findings = ref [] in
  let note m = findings := m :: !findings in
  let contents =
    match load path with
    | data -> walk ~note data
    | exception Sys_error m ->
        note ("unreadable: " ^ m);
        None
  in
  (List.rev !findings, contents)
