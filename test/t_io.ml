(* Tests for the simulated disk: LRU semantics and exact I/O accounting. *)

open Segdb_io

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Lru ---------------- *)

let test_lru_basic () =
  let l = Lru.create ~capacity:2 in
  let evicted = ref [] in
  let on_evict k _ = evicted := k :: !evicted in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 2 "b" ~on_evict;
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find l 1);
  Lru.put l 3 "c" ~on_evict;
  (* 2 was least recently used (1 was touched by find) *)
  Alcotest.(check (list int)) "evicted 2" [ 2 ] !evicted;
  Alcotest.(check (option string)) "2 gone" None (Lru.find l 2);
  Alcotest.(check int) "length" 2 (Lru.length l)

let test_lru_replace () =
  let l = Lru.create ~capacity:2 in
  let on_evict _ _ = Alcotest.fail "no eviction expected" in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 1 "b" ~on_evict;
  Alcotest.(check (option string)) "replaced" (Some "b") (Lru.find l 1);
  Alcotest.(check int) "length 1" 1 (Lru.length l)

let test_lru_remove () =
  let l = Lru.create ~capacity:4 in
  let on_evict _ _ = () in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 2 "b" ~on_evict;
  Alcotest.(check (option string)) "remove returns" (Some "a") (Lru.remove l 1);
  Alcotest.(check (option string)) "remove again" None (Lru.remove l 1);
  Alcotest.(check int) "length" 1 (Lru.length l)

let test_lru_iter_order () =
  let l = Lru.create ~capacity:3 in
  let on_evict _ _ = () in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 2 "b" ~on_evict;
  Lru.put l 3 "c" ~on_evict;
  ignore (Lru.find l 1);
  let order = ref [] in
  Lru.iter l (fun k _ -> order := k :: !order);
  Alcotest.(check (list int)) "MRU first" [ 1; 3; 2 ] (List.rev !order)

(* Model-based property: the LRU against a naive list model. *)
let prop_lru_model =
  QCheck.Test.make ~name:"lru model equivalence" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (pair (int_range 0 15) (int_range 0 100))))
    (fun (cap, ops) ->
      QCheck.assume (cap >= 1);
      let l = Lru.create ~capacity:cap in
      (* model: association list, most recent first *)
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (k, v) ->
          Lru.put l k v ~on_evict:(fun _ _ -> ());
          model := (k, v) :: List.remove_assoc k !model;
          if List.length !model > cap then
            model := List.filteri (fun i _ -> i < cap) !model)
        ops;
      List.iter
        (fun (k, _) ->
          match List.assoc_opt k !model with
          | Some mv -> if Lru.find l k <> Some mv then ok := false
          | None -> if Lru.mem l k then ok := false)
        ops;
      if Lru.length l <> List.length !model then ok := false;
      !ok)

(* ---------------- Block_store ---------------- *)

module S = Block_store.Make (struct
  type t = int
end)

let mk ?(cap = 4) () =
  let pool = Block_store.Pool.create ~capacity:cap in
  let io = Io_stats.create () in
  let s = S.create ~pool ~stats:io () in
  (s, io, pool)

let test_store_roundtrip () =
  let s, _, _ = mk () in
  let a = S.alloc s 10 and b = S.alloc s 20 in
  Alcotest.(check int) "read a" 10 (S.read s a);
  Alcotest.(check int) "read b" 20 (S.read s b);
  S.write s a 11;
  Alcotest.(check int) "read a after write" 11 (S.read s a);
  Alcotest.(check int) "live blocks" 2 (S.block_count s)

let test_store_no_io_while_resident () =
  let s, io, _ = mk ~cap:8 () in
  let addrs = List.init 4 (fun i -> S.alloc s i) in
  List.iter (fun a -> ignore (S.read s a)) addrs;
  List.iter (fun a -> ignore (S.read s a)) addrs;
  Alcotest.(check int) "no reads charged while resident" 0 (Io_stats.reads io);
  Alcotest.(check int) "no writes yet" 0 (Io_stats.writes io);
  Alcotest.(check int) "allocs counted" 4 (Io_stats.allocs io)

let test_store_eviction_charges () =
  let s, io, _ = mk ~cap:2 () in
  let a = S.alloc s 1 in
  let b = S.alloc s 2 in
  let c = S.alloc s 3 in
  (* pool holds 2; allocating c evicted a (dirty) -> 1 write *)
  Alcotest.(check int) "write on dirty eviction" 1 (Io_stats.writes io);
  Alcotest.(check int) "read back a" 1 (S.read s a);
  (* reading a missed -> 1 read, and evicted b (dirty) -> +1 write *)
  Alcotest.(check int) "read charged" 1 (Io_stats.reads io);
  Alcotest.(check int) "second dirty eviction" 2 (Io_stats.writes io);
  ignore (S.read s c);
  ignore b

let test_store_clean_eviction_free () =
  let s, io, _ = mk ~cap:1 () in
  let a = S.alloc s 1 in
  let _b = S.alloc s 2 in
  (* a evicted dirty: 1 write *)
  Alcotest.(check int) "dirty eviction" 1 (Io_stats.writes io);
  ignore (S.read s a);
  (* b evicted dirty: +1 write; a resident clean *)
  Alcotest.(check int) "dirty eviction b" 2 (Io_stats.writes io);
  ignore (S.read s _b);
  (* a evicted clean: no write *)
  Alcotest.(check int) "clean eviction free" 2 (Io_stats.writes io);
  Alcotest.(check int) "reads" 2 (Io_stats.reads io)

let test_store_free_and_errors () =
  let s, _, _ = mk () in
  let a = S.alloc s 5 in
  S.free s a;
  Alcotest.(check int) "no live blocks" 0 (S.block_count s);
  (match S.read s a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read after free should raise");
  match S.free s a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double free should raise"

let test_store_flush () =
  let s, io, _ = mk ~cap:8 () in
  let a = S.alloc s 1 and b = S.alloc s 2 in
  S.flush s;
  Alcotest.(check int) "flush writes dirty blocks" 2 (Io_stats.writes io);
  S.flush s;
  Alcotest.(check int) "second flush free" 2 (Io_stats.writes io);
  ignore (a, b)

let test_store_write_nonresident_no_read () =
  let s, io, _ = mk ~cap:1 () in
  let a = S.alloc s 1 in
  let _b = S.alloc s 2 in
  (* a is on disk now *)
  let r0 = Io_stats.reads io in
  S.write s a 10;
  Alcotest.(check int) "blind overwrite charges no read" r0 (Io_stats.reads io);
  Alcotest.(check int) "value updated" 10 (S.read s a)

(* Satellite pin for block_store.mli's write contract: overwriting a
   non-resident block charges no read at write time, and the dirty page
   is charged exactly one write when evicted or flushed. *)
let test_store_blind_write_accounting () =
  let s, io, _ = mk ~cap:1 () in
  let a = S.alloc s 1 in
  let _b = S.alloc s 2 in
  (* alloc b evicted dirty a: 1 write *)
  Alcotest.(check int) "setup eviction" 1 (Io_stats.writes io);
  S.write s a 10;
  (* blind overwrite of non-resident a: no read, no write yet; inserting
     the frame evicted dirty b: +1 write *)
  Alcotest.(check int) "no read charged" 0 (Io_stats.reads io);
  Alcotest.(check int) "only b's eviction charged" 2 (Io_stats.writes io);
  S.flush s;
  (* the overwritten page pays exactly one write at flush *)
  Alcotest.(check int) "one write on flush" 3 (Io_stats.writes io);
  S.flush s;
  Alcotest.(check int) "clean after flush" 3 (Io_stats.writes io);
  Alcotest.(check int) "value survived" 10 (S.read s a);
  Alcotest.(check int) "still no spurious reads" 0 (Io_stats.reads io)

(* Two stores on one pool: eviction order is the pool's LRU order across
   both stores, and only dirty evictions are charged as writes. *)
let test_shared_pool_eviction_order () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let io = Io_stats.create () in
  let s1 = S.create ~name:"s1" ~pool ~stats:io () in
  let s2 = S.create ~name:"s2" ~pool ~stats:io () in
  let a = S.alloc s1 1 in
  let b = S.alloc s2 2 in
  (* recency now [b; a]; touching a flips it *)
  Alcotest.(check int) "touch a" 1 (S.read s1 a);
  let c = S.alloc s2 3 in
  (* b was LRU: evicted dirty -> 1 write; a survived *)
  Alcotest.(check int) "b evicted dirty" 1 (Io_stats.writes io);
  Alcotest.(check int) "a still resident (no read)" 0 (Io_stats.reads io);
  Alcotest.(check int) "a readable" 1 (S.read s1 a);
  (* clean pages evict for free: flush both stores, then miss on b *)
  S.flush s1;
  S.flush s2;
  let w0 = Io_stats.writes io in
  Alcotest.(check int) "read b back" 2 (S.read s2 b);
  (* b's return evicted the pool's LRU (a or c, both clean): no write *)
  Alcotest.(check int) "clean eviction uncharged" w0 (Io_stats.writes io);
  Alcotest.(check int) "miss charged" 1 (Io_stats.reads io);
  Alcotest.(check bool) "pool bounded" true (Block_store.Pool.resident pool <= 2);
  ignore c

(* Dirty write-back counting when both stores churn through a tiny pool:
   every resident dirty page is written back exactly once. *)
let test_shared_pool_writeback_count () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let io = Io_stats.create () in
  let s1 = S.create ~name:"s1" ~pool ~stats:io () in
  let s2 = S.create ~name:"s2" ~pool ~stats:io () in
  let n = 6 in
  let a1 = Array.init n (fun i -> S.alloc s1 i) in
  let a2 = Array.init n (fun i -> S.alloc s2 (100 + i)) in
  (* 2n dirty allocations through a 2-frame pool: all but the final two
     residents were evicted dirty *)
  Alcotest.(check int) "evictions charged" ((2 * n) - 2) (Io_stats.writes io);
  S.flush s1;
  S.flush s2;
  Alcotest.(check int) "flush writes the rest" (2 * n) (Io_stats.writes io);
  Array.iteri (fun i a -> Alcotest.(check int) "s1 contents" i (S.read s1 a)) a1;
  Array.iteri (fun i a -> Alcotest.(check int) "s2 contents" (100 + i) (S.read s2 a)) a2

(* Two stores sharing one pool compete for frames. *)
let test_shared_pool () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let io = Io_stats.create () in
  let s1 = S.create ~name:"s1" ~pool ~stats:io () in
  let s2 = S.create ~name:"s2" ~pool ~stats:io () in
  let a = S.alloc s1 1 in
  let _ = S.alloc s2 2 in
  let _ = S.alloc s2 3 in
  (* a was evicted by s2's allocations *)
  let r0 = Io_stats.reads io in
  Alcotest.(check int) "read back from disk" 1 (S.read s1 a);
  Alcotest.(check int) "miss charged" (r0 + 1) (Io_stats.reads io);
  Alcotest.(check bool) "pool bounded" true (Block_store.Pool.resident pool <= 2)

let prop_store_model =
  QCheck.Test.make ~name:"block store read-your-writes under eviction" ~count:200
    QCheck.(pair (int_range 1 6) (small_list (pair (int_range 0 9) (int_range 0 999))))
    (fun (cap, writes) ->
      let pool = Block_store.Pool.create ~capacity:cap in
      let io = Io_stats.create () in
      let s = S.create ~pool ~stats:io () in
      let addr_of = Hashtbl.create 16 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          (match Hashtbl.find_opt addr_of k with
          | None -> Hashtbl.add addr_of k (S.alloc s v)
          | Some a -> S.write s a v);
          Hashtbl.replace model k v)
        writes;
      Hashtbl.fold
        (fun k a ok -> ok && S.read s a = Hashtbl.find model k)
        addr_of true)

(* Accounting oracle: random alloc/read/write/free/flush sequences over
   two stores sharing a 3-block pool, each store charging its own
   stats, against a reference model of the pool (a list LRU, most
   recent first) and of every block's payload and dirty bit. After
   every op the payload read, both stores' reads/writes/allocs and the
   pool's residency must match the model. *)
type model_block = { mutable value : int; mutable mdirty : bool }

type store_op =
  | Alloc of int * int (* store, payload *)
  | Read of int * int (* store, which live block *)
  | Write of int * int * int
  | Free of int * int
  | Flush of int

let store_op_print = function
  | Alloc (s, v) -> Printf.sprintf "alloc s%d %d" s v
  | Read (s, k) -> Printf.sprintf "read s%d #%d" s k
  | Write (s, k, v) -> Printf.sprintf "write s%d #%d %d" s k v
  | Free (s, k) -> Printf.sprintf "free s%d #%d" s k
  | Flush s -> Printf.sprintf "flush s%d" s

let store_op_gen =
  QCheck.Gen.(
    let* s = 0 -- 1 and* k = 0 -- 7 and* v = 0 -- 999 in
    frequency
      [
        (3, return (Alloc (s, v)));
        (5, return (Read (s, k)));
        (3, return (Write (s, k, v)));
        (1, return (Free (s, k)));
        (1, return (Flush s));
      ])

let prop_store_accounting_oracle =
  QCheck.Test.make ~name:"block store accounting oracle" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map store_op_print ops))
       QCheck.Gen.(list_size (0 -- 80) store_op_gen))
    (fun ops ->
      let cap = 3 in
      let pool = Block_store.Pool.create ~capacity:cap in
      let ios = Array.init 2 (fun _ -> Io_stats.create ()) in
      let stores = Array.init 2 (fun i -> S.create ~pool ~stats:ios.(i) ()) in
      (* model: per-store live blocks (address order), their contents,
         the LRU as (store, addr), and the expected counters *)
      let live = Array.make 2 [] in
      let blocks = Hashtbl.create 16 in
      let lru = ref [] in
      let reads = Array.make 2 0 and writes = Array.make 2 0 and allocs = Array.make 2 0 in
      let evict_overflow () =
        if List.length !lru > cap then begin
          let victim = List.nth !lru cap in
          lru := List.filteri (fun i _ -> i < cap) !lru;
          let s, a = victim in
          let b = Hashtbl.find blocks a in
          if b.mdirty then begin
            b.mdirty <- false;
            writes.(s) <- writes.(s) + 1
          end
        end
      in
      let to_front s a =
        lru := (s, a) :: List.filter (fun (_, a') -> a' <> a) !lru;
        evict_overflow ()
      in
      let resident a = List.exists (fun (_, a') -> a' = a) !lru in
      let pick s k = match live.(s) with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Alloc (s, v) ->
              let a = S.alloc stores.(s) v in
              allocs.(s) <- allocs.(s) + 1;
              live.(s) <- live.(s) @ [ a ];
              Hashtbl.replace blocks a { value = v; mdirty = true };
              to_front s a
          | Read (s, k) -> (
              match pick s k with
              | None -> ()
              | Some a ->
                  let got = S.read stores.(s) a in
                  if not (resident a) then reads.(s) <- reads.(s) + 1;
                  to_front s a;
                  check (got = (Hashtbl.find blocks a).value))
          | Write (s, k, v) -> (
              match pick s k with
              | None -> ()
              | Some a ->
                  S.write stores.(s) a v;
                  let b = Hashtbl.find blocks a in
                  b.value <- v;
                  b.mdirty <- true;
                  to_front s a)
          | Free (s, k) -> (
              match pick s k with
              | None -> ()
              | Some a ->
                  S.free stores.(s) a;
                  live.(s) <- List.filter (( <> ) a) live.(s);
                  Hashtbl.remove blocks a;
                  lru := List.filter (fun (_, a') -> a' <> a) !lru)
          | Flush s ->
              S.flush stores.(s);
              List.iter
                (fun a ->
                  let b = Hashtbl.find blocks a in
                  if b.mdirty then begin
                    b.mdirty <- false;
                    writes.(s) <- writes.(s) + 1
                  end)
                live.(s));
          for s = 0 to 1 do
            check (Io_stats.reads ios.(s) = reads.(s));
            check (Io_stats.writes ios.(s) = writes.(s));
            check (Io_stats.allocs ios.(s) = allocs.(s));
            check (S.block_count stores.(s) = List.length live.(s))
          done;
          check (Block_store.Pool.resident pool = List.length !lru))
        ops;
      !ok)

(* Memory guard: an empty store costs a few words, not preallocated
   tables. Each store of an index is one paper-model structure, and an
   index can hold thousands of small ones. *)
let test_empty_store_words () =
  let pool = Block_store.Pool.create ~capacity:1 in
  let s = S.create ~pool ~stats:(Io_stats.create ()) () in
  let w = Obj.reachable_words (Obj.repr s) in
  Alcotest.(check bool) (Printf.sprintf "empty store is %d words (< 200)" w) true (w < 200)

let suite =
  ( "io",
    [
      Alcotest.test_case "lru basic" `Quick test_lru_basic;
      Alcotest.test_case "lru replace" `Quick test_lru_replace;
      Alcotest.test_case "lru remove" `Quick test_lru_remove;
      Alcotest.test_case "lru iter order" `Quick test_lru_iter_order;
      Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
      Alcotest.test_case "store resident free" `Quick test_store_no_io_while_resident;
      Alcotest.test_case "store eviction charges" `Quick test_store_eviction_charges;
      Alcotest.test_case "store clean eviction free" `Quick test_store_clean_eviction_free;
      Alcotest.test_case "store free/errors" `Quick test_store_free_and_errors;
      Alcotest.test_case "store flush" `Quick test_store_flush;
      Alcotest.test_case "store blind write" `Quick test_store_write_nonresident_no_read;
      Alcotest.test_case "store blind write accounting pin" `Quick
        test_store_blind_write_accounting;
      Alcotest.test_case "shared pool" `Quick test_shared_pool;
      Alcotest.test_case "shared pool eviction order" `Quick
        test_shared_pool_eviction_order;
      Alcotest.test_case "shared pool write-back count" `Quick
        test_shared_pool_writeback_count;
      Alcotest.test_case "empty store memory guard" `Quick test_empty_store_words;
      qtest prop_lru_model;
      qtest prop_store_model;
      qtest prop_store_accounting_oracle;
    ] )

(* ---------------- Ext_sort ---------------- *)

module Xs = Ext_sort.Make (Int)

let prop_extsort_correct =
  QCheck.Test.make ~name:"external sort equals Array.sort" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 2000) (int_range 0 10_000))
        (int_range 1 16) (int_range 3 8))
    (fun (xs, block, mem) ->
      let pool = Block_store.Pool.create ~capacity:mem in
      let io = Io_stats.create () in
      let arr = Array.of_list xs in
      let sorted = Xs.sort ~pool ~stats:io ~block ~memory_blocks:mem arr in
      let expected = Array.copy arr in
      Array.sort compare expected;
      sorted = expected)

let prop_extsort_stable =
  QCheck.Test.make ~name:"external sort is stable" ~count:100
    QCheck.(list_of_size Gen.(0 -- 500) (int_range 0 20))
    (fun keys ->
      (* tag duplicates with their original index; compare keys only *)
      let module P = Ext_sort.Make (struct
        type t = int * int

        let compare (a, _) (b, _) = compare a b
      end) in
      let pool = Block_store.Pool.create ~capacity:8 in
      let io = Io_stats.create () in
      let arr = Array.of_list (List.mapi (fun i k -> (k, i)) keys) in
      let sorted = P.sort ~pool ~stats:io ~block:4 ~memory_blocks:3 arr in
      let expected = Array.copy arr in
      Array.stable_sort (fun (a, _) (b, _) -> compare a b) expected;
      sorted = expected)

let test_extsort_io_scaling () =
  (* I/O ~ 2 * blocks * (passes + 1): the EM sorting bound's shape *)
  let block = 16 and mem = 4 in
  let costs =
    List.map
      (fun n ->
        let pool = Block_store.Pool.create ~capacity:mem in
        let io = Io_stats.create () in
        let arr = Array.init n (fun i -> (i * 7919) mod 104729) in
        ignore (Xs.sort ~pool ~stats:io ~block ~memory_blocks:mem arr);
        let blocks = (n + block - 1) / block in
        let passes = Xs.passes ~block ~memory_blocks:mem n in
        (n, Io_stats.total_io io, blocks * (2 * (passes + 2))))
      [ 1_000; 4_000; 16_000 ]
  in
  List.iter
    (fun (n, io, budget) ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d io=%d within budget %d" n io budget)
        true (io <= budget))
    costs

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "extsort io scaling" `Quick test_extsort_io_scaling;
        qtest prop_extsort_correct;
        qtest prop_extsort_stable;
      ] )

(* ---------------- Crc ---------------- *)

let test_crc_vectors () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc.string "");
  Alcotest.(check bool) "distinct" true (Crc.string "abc" <> Crc.string "abd")

let prop_crc_incremental =
  QCheck.Test.make ~name:"crc incremental equals one-shot" ~count:200
    QCheck.(pair (small_string) (small_string))
    (fun (a, b) ->
      let s = a ^ b in
      let acc = Crc.update Crc.init a ~pos:0 ~len:(String.length a) in
      let acc = Crc.update acc (a ^ b) ~pos:(String.length a) ~len:(String.length b) in
      Crc.finish acc = Crc.string s)

(* ---------------- Codec ---------------- *)

let prop_codec_roundtrip =
  let c =
    Codec.(pair int (pair float (pair string (pair bool (list (option int))))))
  in
  QCheck.Test.make ~name:"codec roundtrip" ~count:300
    QCheck.(
      quad int float (printable_string)
        (pair bool (small_list (option int))))
    (fun (i, f, s, (b, l)) ->
      let v = (i, (f, (s, (b, l)))) in
      let d = Codec.decode c (Codec.encode c v) in
      (* distinguish nan from nan by bits, not by (=) *)
      let (i', (f', rest')) = d and (_, (_, rest)) = v in
      i' = i && Int64.bits_of_float f' = Int64.bits_of_float f && rest' = rest)

let test_codec_corrupt () =
  let s = Codec.encode Codec.int 42 in
  (match Codec.decode Codec.int (s ^ "x") with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "trailing bytes must raise");
  (match Codec.decode Codec.int (String.sub s 0 4) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation must raise");
  match Codec.decode Codec.(array int) "\xff\xff\xff\xff" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "huge array length must raise"

(* ---------------- File_store ---------------- *)

module FS = File_store.Make (struct
  type t = int array

  let codec = Codec.(array int)
end)

let tmpfile () = Filename.temp_file "segdb_fstore" ".blk"

let with_store ?(page_size = 4096) ?(cache_blocks = 4) f =
  let path = tmpfile () in
  let io = Io_stats.create () in
  let s = FS.create ~page_size ~cache_blocks ~stats:io ~path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path io s)

let test_fstore_roundtrip () =
  with_store (fun _ _ s ->
      let a = FS.alloc s [| 10 |] and b = FS.alloc s [| 20; 21 |] in
      Alcotest.(check (array int)) "read a" [| 10 |] (FS.read s a);
      Alcotest.(check (array int)) "read b" [| 20; 21 |] (FS.read s b);
      FS.write s a [| 11 |];
      Alcotest.(check (array int)) "after write" [| 11 |] (FS.read s a);
      Alcotest.(check int) "live blocks" 2 (FS.block_count s);
      FS.close s)

(* The in-memory store's accounting battery, replayed against the file:
   identical charges for single-page payloads. *)
let test_fstore_accounting () =
  with_store ~cache_blocks:2 (fun _ io s ->
      let a = FS.alloc s [| 1 |] in
      let b = FS.alloc s [| 2 |] in
      let c = FS.alloc s [| 3 |] in
      Alcotest.(check int) "write on dirty eviction" 1 (Io_stats.writes io);
      Alcotest.(check (array int)) "read back a" [| 1 |] (FS.read s a);
      Alcotest.(check int) "read charged" 1 (Io_stats.reads io);
      Alcotest.(check int) "second dirty eviction" 2 (Io_stats.writes io);
      ignore (FS.read s c);
      ignore b;
      FS.close s)

let test_fstore_blind_write () =
  with_store ~cache_blocks:1 (fun _ io s ->
      let a = FS.alloc s [| 1 |] in
      let _b = FS.alloc s [| 2 |] in
      let r0 = Io_stats.reads io in
      FS.write s a [| 10 |];
      Alcotest.(check int) "blind overwrite charges no read" r0 (Io_stats.reads io);
      Alcotest.(check (array int)) "value updated" [| 10 |] (FS.read s a);
      FS.close s)

let test_fstore_free_errors () =
  with_store (fun _ _ s ->
      let a = FS.alloc s [| 5 |] in
      FS.free s a;
      Alcotest.(check int) "no live blocks" 0 (FS.block_count s);
      (match FS.read s a with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "read after free should raise");
      (match FS.free s a with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "double free should raise");
      FS.close s)

let test_fstore_persistence () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let io = Io_stats.create () in
      let s = FS.create ~page_size:256 ~cache_blocks:4 ~stats:io ~path () in
      let addrs = Array.init 20 (fun i -> FS.alloc s (Array.init (i mod 7) (fun j -> (i * 100) + j))) in
      FS.set_root s addrs.(3);
      FS.close s;
      (* a different process would do exactly this *)
      let io2 = Io_stats.create () in
      let s2 = FS.open_existing ~cache_blocks:4 ~stats:io2 ~path () in
      Alcotest.(check int) "live blocks survive" 20 (FS.block_count s2);
      Alcotest.(check int) "root survives" addrs.(3) (FS.root s2);
      Alcotest.(check int) "page size from superblock" 256 (FS.page_size s2);
      Array.iteri
        (fun i a ->
          Alcotest.(check (array int))
            (Printf.sprintf "block %d" i)
            (Array.init (i mod 7) (fun j -> (i * 100) + j))
            (FS.read s2 a))
        addrs;
      Alcotest.(check bool) "cold reads charged" true (Io_stats.reads io2 >= 16);
      FS.close s2)

let test_fstore_multipage () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let io = Io_stats.create () in
      (* page payload capacity 64 - 9 = 55 bytes: a 100-int array (804
         bytes with the length prefix) needs 15 pages *)
      let s = FS.create ~page_size:64 ~cache_blocks:2 ~stats:io ~path () in
      let big = Array.init 100 (fun i -> i * i) in
      let a = FS.alloc s big in
      let small = FS.alloc s [| 7 |] in
      FS.flush s;
      let w = Io_stats.writes io in
      Alcotest.(check bool) "multi-page write charged per page" true (w >= 15);
      let pages_before = FS.page_count s in
      (* shrink: surplus pages go to the free list and are reused *)
      FS.write s a [| 1; 2 |];
      FS.flush s;
      let b = FS.alloc s (Array.init 50 (fun i -> i)) in
      FS.flush s;
      Alcotest.(check bool) "shrink + realloc reuses pages"
        true
        (FS.page_count s <= pages_before + 1);
      FS.close s;
      let io2 = Io_stats.create () in
      let s2 = FS.open_existing ~stats:io2 ~path () in
      Alcotest.(check (array int)) "shrunk block" [| 1; 2 |] (FS.read s2 a);
      Alcotest.(check (array int)) "small block" [| 7 |] (FS.read s2 small);
      Alcotest.(check (array int)) "reused-page block" (Array.init 50 (fun i -> i)) (FS.read s2 b);
      FS.close s2)

let test_fstore_free_reuse () =
  with_store (fun _ _ s ->
      let a = FS.alloc s [| 1 |] in
      let _b = FS.alloc s [| 2 |] in
      let pages = FS.page_count s in
      FS.free s a;
      let c = FS.alloc s [| 3 |] in
      Alcotest.(check int) "freed page reused" pages (FS.page_count s);
      Alcotest.(check (array int)) "new contents" [| 3 |] (FS.read s c);
      FS.close s)

let test_fstore_corrupt () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "this is not a block store at all.....";
      close_out oc;
      match FS.open_existing ~stats:(Io_stats.create ()) ~path () with
      | exception File_store.Corrupt_store _ -> ()
      | _ -> Alcotest.fail "garbage must be rejected")

let prop_fstore_model =
  QCheck.Test.make ~name:"file store read-your-writes under eviction" ~count:60
    QCheck.(pair (int_range 1 6) (small_list (pair (int_range 0 9) (int_range 0 999))))
    (fun (cap, writes) ->
      let path = tmpfile () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let io = Io_stats.create () in
          let s = FS.create ~page_size:64 ~cache_blocks:cap ~stats:io ~path () in
          let addr_of = Hashtbl.create 16 in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, v) ->
              (* variable payload sizes exercise extent growth/shrink *)
              let payload = Array.make (1 + (v mod 40)) v in
              (match Hashtbl.find_opt addr_of k with
              | None -> Hashtbl.add addr_of k (FS.alloc s payload)
              | Some a -> FS.write s a payload);
              Hashtbl.replace model k payload)
            writes;
          let ok =
            Hashtbl.fold
              (fun k a ok -> ok && FS.read s a = Hashtbl.find model k)
              addr_of true
          in
          (* and across a close/open boundary *)
          FS.close s;
          let s2 = FS.open_existing ~stats:(Io_stats.create ()) ~path () in
          let ok2 =
            Hashtbl.fold
              (fun k a ok -> ok && FS.read s2 a = Hashtbl.find model k)
              addr_of ok
          in
          FS.close s2;
          ok2))

(* ---------------- Wal ---------------- *)

let test_wal_roundtrip () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string)) "fresh log" [] replayed;
      Wal.append w "alpha";
      Wal.append w "";
      Wal.append w (String.make 1000 'z');
      Wal.close w;
      let w2, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string))
        "records survive" [ "alpha"; ""; String.make 1000 'z' ] replayed;
      Wal.append w2 "omega";
      Wal.close w2;
      Alcotest.(check (list string))
        "scan sees appended"
        [ "alpha"; ""; String.make 1000 'z'; "omega" ]
        (Wal.scan path))

let test_wal_reset () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "a";
      Wal.append w "b";
      Wal.reset w;
      Alcotest.(check int) "empty after reset" 0 (Wal.size w);
      Wal.append w "c";
      Wal.close w;
      Alcotest.(check (list string)) "only post-reset records" [ "c" ] (Wal.scan path))

(* The acceptance test: truncate the log at EVERY byte offset; recovery
   must accept exactly the complete frames and repair the file. *)
let test_wal_torn_tail_sweep () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  let torn = Filename.temp_file "segdb_wal" ".torn" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove torn)
    (fun () ->
      let payloads = [ "a"; ""; "bcd"; String.make 57 'x'; "e"; "fg" ] in
      let w, _ = Wal.open_ ~sync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* frame boundaries: 8 bytes of framing per record *)
      let boundaries =
        List.fold_left
          (fun acc p -> (List.hd acc + 8 + String.length p) :: acc)
          [ 0 ] payloads
        |> List.rev
      in
      let expected_at len =
        let rec go ps bs acc =
          match (ps, bs) with
          | p :: ps', b :: (b' :: _ as bs') when b' <= len -> ignore b; go ps' bs' (p :: acc)
          | _ -> List.rev acc
        in
        go payloads boundaries []
      in
      for len = 0 to String.length data do
        let oc = open_out_bin torn in
        output_string oc (String.sub data 0 len);
        close_out oc;
        let w, replayed = Wal.open_ ~sync:false torn in
        let expect = expected_at len in
        if replayed <> expect then
          Alcotest.failf "truncation at %d: got %d records, expected %d" len
            (List.length replayed) (List.length expect);
        (* the torn tail was truncated away: the file is now exactly its
           valid prefix *)
        let repaired = (Unix.stat torn).Unix.st_size in
        let valid =
          List.fold_left (fun acc p -> acc + 8 + String.length p) 0 expect
        in
        if repaired <> valid then
          Alcotest.failf "truncation at %d: repaired size %d, expected %d" len repaired
            valid;
        Wal.close w
      done)

let test_wal_corrupt_byte () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "hello";
      Wal.append w "world";
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* flip a byte inside the first payload: both records die (the
         second is unreachable without trusting the first frame) *)
      let b = Bytes.of_string data in
      Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 0xFF));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      Alcotest.(check (list string)) "corrupt frame stops the scan" [] (Wal.scan path))

(* Replay from an arbitrary LSN offset into the log's total order —
   the replication catch-up path. *)
let test_wal_scan_from () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let payloads = [ "a"; "bb"; ""; "dddd"; "e" ] in
      let w, _ = Wal.open_ ~sync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      Alcotest.(check (list string)) "from 0 = scan" payloads (Wal.scan_from path ~from:0);
      Alcotest.(check (list string))
        "negative behaves like 0" payloads
        (Wal.scan_from path ~from:(-3));
      Alcotest.(check (list string))
        "mid offset" [ ""; "dddd"; "e" ]
        (Wal.scan_from path ~from:2);
      Alcotest.(check (list string)) "last record" [ "e" ] (Wal.scan_from path ~from:4);
      Alcotest.(check (list string)) "at the end" [] (Wal.scan_from path ~from:5);
      Alcotest.(check (list string)) "past the end" [] (Wal.scan_from path ~from:50);
      Alcotest.(check (list string))
        "missing file" []
        (Wal.scan_from (path ^ ".does-not-exist") ~from:0))

(* A tail torn exactly at a record boundary is indistinguishable from a
   clean close: every record before the cut survives, the audit shows
   zero torn bytes, and open_ truncates nothing. *)
let test_wal_torn_at_record_boundary () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  let torn = Filename.temp_file "segdb_wal" ".torn" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove torn)
    (fun () ->
      let payloads = [ "alpha"; ""; "gamma!" ] in
      let w, _ = Wal.open_ ~sync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let cut = ref 0 in
      List.iteri
        (fun i p ->
          cut := !cut + 8 + String.length p;
          let oc = open_out_bin torn in
          output_string oc (String.sub data 0 !cut);
          close_out oc;
          let a = Wal.audit torn in
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: records" i)
            (i + 1) a.Wal.audit_records;
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: no torn tail" i)
            a.Wal.valid_bytes a.Wal.file_bytes;
          let w, replayed = Wal.open_ ~sync:false torn in
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: replay" i)
            (i + 1) (List.length replayed);
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: open_ truncated nothing" i)
            !cut
            (Unix.stat torn).Unix.st_size;
          Wal.close w)
        payloads)

(* Audit on an empty (zero-length but existing) log: all zeros, and
   consistent with what open_ replays. *)
let test_wal_audit_empty () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check int) "fresh temp file is empty" 0 (Unix.stat path).Unix.st_size;
      let a = Wal.audit path in
      Alcotest.(check int) "no records" 0 a.Wal.audit_records;
      Alcotest.(check int) "no valid bytes" 0 a.Wal.valid_bytes;
      Alcotest.(check int) "no file bytes" 0 a.Wal.file_bytes;
      let w, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string)) "open_ replays nothing" [] replayed;
      Wal.close w;
      Alcotest.(check (list string)) "scan_from on empty" [] (Wal.scan_from path ~from:0))

(* ---------------- Failpoint + checksummed store ---------------- *)

(* Every test arms the global registry, so every test disarms in a
   [finally] — a leaked plan would fault unrelated tests. *)
let with_armed ?seed plans f =
  Fun.protect ~finally:Failpoint.disarm (fun () ->
      Failpoint.arm ?seed plans;
      f ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_fp_parse () =
  (match Failpoint.parse_spec "wal.append=crash@3;pread=eio+" with
  | Error e -> Alcotest.failf "valid spec rejected: %s" e
  | Ok plans ->
      Alcotest.(check int) "two plans" 2 (List.length plans);
      let p = List.assoc "wal.append" plans in
      Alcotest.(check int) "hit number" 3 p.Failpoint.at;
      Alcotest.(check bool) "one-shot" false p.Failpoint.persistent;
      let q = List.assoc "pread" plans in
      Alcotest.(check bool) "persistent" true q.Failpoint.persistent);
  List.iter
    (fun bad ->
      match Failpoint.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed spec accepted: %S" bad)
    [ "pread"; "pread=frob"; "pread=eio@zero"; "=eio" ]

let test_fp_disarmed () =
  Failpoint.disarm ();
  Alcotest.(check bool) "disarmed by default" false (Failpoint.armed ());
  Alcotest.(check bool) "fire is a no-op" true
    (Failpoint.fire (Failpoint.site "pread") = None)

(* A one-shot transient EIO on the read path heals invisibly: the
   caller sees the correct value, only the retry counter moves. *)
let test_fp_retry_transparent () =
  with_store ~page_size:128 ~cache_blocks:1 (fun _ _ s ->
      let a = FS.alloc s [| 1; 2; 3 |] in
      let _b = FS.alloc s [| 4 |] in
      FS.flush s;
      with_armed [ ("pread", Failpoint.plan Failpoint.Eio) ] (fun () ->
          Alcotest.(check (array int)) "transient EIO healed" [| 1; 2; 3 |] (FS.read s a);
          Alcotest.(check bool) "site fired" true
            (Failpoint.hits (Failpoint.site "pread") >= 1));
      FS.close s)

(* A persistent EIO is a dead device: the bounded retry gives up and
   the error surfaces instead of spinning forever. *)
let test_fp_persistent_eio () =
  with_store ~page_size:128 ~cache_blocks:1 (fun _ _ s ->
      let a = FS.alloc s [| 9; 9 |] in
      let _b = FS.alloc s [| 4 |] in
      FS.flush s;
      with_armed [ ("pread", Failpoint.plan ~persistent:true Failpoint.Eio) ] (fun () ->
          match FS.read s a with
          | _ -> Alcotest.fail "persistent EIO must surface"
          | exception Unix.Unix_error (Unix.EIO, _, _) -> ()
          | exception File_store.Corrupt_store _ -> ());
      (* the device recovered: the store object is still usable *)
      Alcotest.(check (array int)) "usable after disarm" [| 9; 9 |] (FS.read s a);
      FS.close s)

(* A flipped bit on the write path is silent at write time; the page
   CRC refuses it at read time — or, if the flip landed in the page's
   uncovered slack, the value is simply intact. Either way, never a
   silently wrong value. *)
let test_fp_write_flip_caught () =
  with_store ~page_size:128 ~cache_blocks:1 (fun _ _ s ->
      let a = FS.alloc s [| 5; 6; 7 |] in
      with_armed ~seed:7 [ ("pwrite", Failpoint.plan Failpoint.Bit_flip) ] (fun () ->
          let _b = FS.alloc s [| 1 |] in
          (* allocating _b evicted dirty a through the flipped pwrite *)
          ());
      (match FS.read s a with
      | v -> Alcotest.(check (array int)) "flip in slack: value intact" [| 5; 6; 7 |] v
      | exception File_store.Corrupt_store _ -> ());
      FS.close s)

(* Deterministic page-CRC check: flip the first payload byte of the
   first page on disk; the read must refuse and the scrubber must point
   at the page. *)
let test_fstore_crc_detects_flip () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = FS.create ~page_size:128 ~cache_blocks:2 ~stats:(Io_stats.create ()) ~path () in
      let a = FS.alloc s [| 11; 12; 13 |] in
      FS.sync s;
      FS.close s;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let off = 128 + 13 in
      (* first payload byte of page 1 *)
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      (match File_store.Scrub.file path with
      | [] -> Alcotest.fail "scrub must report the damaged page"
      | fs ->
          Alcotest.(check bool)
            "finding names page 1" true
            (List.exists (fun m -> contains ~sub:"page 1" m) fs));
      let s2 = FS.open_existing ~stats:(Io_stats.create ()) ~path () in
      (match FS.read s2 a with
      | _ -> Alcotest.fail "corrupt page must not decode"
      | exception File_store.Corrupt_store _ -> ());
      FS.close s2)

(* The satellite property: flip one byte ANYWHERE in a saved store
   file. Acceptable outcomes: detected (open or read raises
   [Corrupt_store], and the scrubber reports a finding) or provably
   harmless (every surviving value reads back bit-identical). Silent
   wrong answers — and clean scrubs alongside read failures — fail. *)
let prop_fstore_flip_never_silent =
  QCheck.Test.make ~name:"single byte flip in the store is never silent" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 0 7))
    (fun (posx, bit) ->
      let path = tmpfile () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let s =
            FS.create ~page_size:64 ~cache_blocks:2 ~stats:(Io_stats.create ()) ~path ()
          in
          let payload i = Array.init (1 + (i * 5 mod 17)) (fun j -> (i * 100) + j) in
          let addrs = Array.init 8 (fun i -> FS.alloc s (payload i)) in
          FS.free s addrs.(2);
          FS.set_root s addrs.(0);
          FS.sync s;
          FS.close s;
          let ic = open_in_bin path in
          let data =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let pos = posx mod String.length data in
          let b = Bytes.of_string data in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          let oc = open_out_bin path in
          output_bytes oc b;
          close_out oc;
          let findings = File_store.Scrub.file path in
          match FS.open_existing ~stats:(Io_stats.create ()) ~path () with
          | exception File_store.Corrupt_store _ -> findings <> []
          | s2 ->
              let silent = ref false and detected = ref false in
              Array.iteri
                (fun i a ->
                  if i <> 2 then
                    match FS.read s2 a with
                    | v -> if v <> payload i then silent := true
                    | exception File_store.Corrupt_store _ -> detected := true
                    | exception Invalid_argument _ ->
                        (* the flip hit a page header: the rebuilt
                           address map dropped the page, so the read is
                           refused loudly — detected, not silent *)
                        detected := true)
                addrs;
              FS.close s2;
              (not !silent) && ((not !detected) || findings <> [])))

(* Format gate: a version-1 image (even with a self-consistent CRC)
   is refused with a message that says how to migrate. *)
let test_fstore_v1_rejected () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = FS.create ~page_size:128 ~cache_blocks:2 ~stats:(Io_stats.create ()) ~path () in
      ignore (FS.alloc s [| 1 |]);
      FS.sync s;
      FS.close s;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let sb = Bytes.create 28 in
      ignore (Unix.read fd sb 0 28);
      Bytes.set_int32_le sb 8 1l;
      (* re-seal: the CRC is valid, only the version is old *)
      let crc = Crc.string (Bytes.sub_string sb 0 24) in
      Bytes.set_int32_le sb 24 (Int32.of_int crc);
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      ignore (Unix.write fd sb 0 28);
      Unix.close fd;
      (match FS.open_existing ~stats:(Io_stats.create ()) ~path () with
      | _ -> Alcotest.fail "v1 image must be rejected"
      | exception File_store.Corrupt_store m ->
          Alcotest.(check bool)
            "message names the version" true
            (contains ~sub:"version" m));
      Alcotest.(check bool)
        "scrub reports the version too" true
        (List.exists
           (fun m -> contains ~sub:"version" m)
           (File_store.Scrub.file path)))

(* A store that has only ever gone through the front door scrubs
   clean — including after frees, shrinks and multi-page extents. *)
let test_fstore_fresh_scrub_clean () =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = FS.create ~page_size:64 ~cache_blocks:2 ~stats:(Io_stats.create ()) ~path () in
      let big = FS.alloc s (Array.init 100 (fun i -> i)) in
      let small = FS.alloc s [| 1 |] in
      FS.free s small;
      FS.write s big [| 9 |];
      (* shrink: surplus pages become tombstones *)
      ignore (FS.alloc s (Array.init 30 (fun i -> i)));
      FS.sync s;
      FS.close s;
      Alcotest.(check (list string)) "clean" [] (File_store.Scrub.file path))

(* Torn WAL append: the writer dies mid-frame; recovery replays the
   intact prefix and truncates the tear, and [Wal.audit] sees both
   states. *)
let test_wal_torn_append () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "one";
      Wal.append w "two";
      with_armed ~seed:3 [ ("wal.append", Failpoint.plan Failpoint.Torn) ] (fun () ->
          match Wal.append w (String.make 200 'q') with
          | () -> Alcotest.fail "torn append must crash"
          | exception Failpoint.Injected_crash _ -> ());
      Wal.close w;
      let a = Wal.audit path in
      Alcotest.(check int) "intact records" 2 a.Wal.audit_records;
      Alcotest.(check bool) "tear is visible" true (a.Wal.file_bytes >= a.Wal.valid_bytes);
      let w2, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string)) "prefix replayed" [ "one"; "two" ] replayed;
      Wal.close w2;
      let a2 = Wal.audit path in
      Alcotest.(check int) "tail truncated" a2.Wal.valid_bytes a2.Wal.file_bytes)

(* A short write on the append path is retried from the frame start:
   the caller never notices and the log has no partial frame. *)
let test_wal_short_append_retried () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "first";
      with_armed ~seed:5 [ ("wal.append", Failpoint.plan Failpoint.Short) ] (fun () ->
          Wal.append w (String.make 100 'r'));
      Wal.append w "last";
      Wal.close w;
      Alcotest.(check (list string))
        "every record intact"
        [ "first"; String.make 100 'r'; "last" ]
        (Wal.scan path);
      let a = Wal.audit path in
      Alcotest.(check int) "no torn bytes" a.Wal.valid_bytes a.Wal.file_bytes)

(* Bit flips in each field of a WAL frame: length, checksum, payload —
   the scan must stop at the damaged frame, never deliver garbage. *)
let test_wal_flip_fields () =
  let write_flipped path data pos =
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "hello";
      Wal.append w "world";
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* frame 1 occupies [0, 13): len u32 | crc u32 | 5 payload bytes *)
      List.iter
        (fun (pos, what) ->
          write_flipped path data pos;
          Alcotest.(check (list string))
            (Printf.sprintf "flip in %s kills frame 1" what)
            [] (Wal.scan path))
        [ (0, "length"); (4, "checksum"); (9, "payload") ];
      (* frame 2's fields: frame 1 must still be delivered *)
      List.iter
        (fun (pos, what) ->
          write_flipped path data pos;
          Alcotest.(check (list string))
            (Printf.sprintf "flip in frame-2 %s keeps frame 1" what)
            [ "hello" ] (Wal.scan path))
        [ (13, "length"); (17, "checksum"); (21, "payload") ])

let test_wal_audit () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let missing = Wal.audit (path ^ ".does-not-exist") in
      Alcotest.(check int) "missing file: no records" 0 missing.Wal.audit_records;
      Alcotest.(check int) "missing file: no bytes" 0 missing.Wal.file_bytes;
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "aa";
      Wal.append w "bbbb";
      Wal.close w;
      let a = Wal.audit path in
      Alcotest.(check int) "records" 2 a.Wal.audit_records;
      Alcotest.(check int) "fully valid" a.Wal.file_bytes a.Wal.valid_bytes;
      Alcotest.(check int) "framing accounted" (8 + 2 + 8 + 4) a.Wal.valid_bytes;
      (* garbage after the valid prefix *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\xde\xad\xbe\xef";
      close_out oc;
      let a2 = Wal.audit path in
      Alcotest.(check int) "records unchanged" 2 a2.Wal.audit_records;
      Alcotest.(check int) "valid prefix unchanged" a.Wal.valid_bytes a2.Wal.valid_bytes;
      Alcotest.(check int) "garbage counted" (a.Wal.file_bytes + 4) a2.Wal.file_bytes)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "failpoint spec parser" `Quick test_fp_parse;
        Alcotest.test_case "failpoint disarmed no-op" `Quick test_fp_disarmed;
        Alcotest.test_case "transient EIO healed by retry" `Quick test_fp_retry_transparent;
        Alcotest.test_case "persistent EIO surfaces bounded" `Quick test_fp_persistent_eio;
        Alcotest.test_case "write-path bit flip caught by CRC" `Quick
          test_fp_write_flip_caught;
        Alcotest.test_case "page CRC detects a flipped byte" `Quick
          test_fstore_crc_detects_flip;
        qtest prop_fstore_flip_never_silent;
        Alcotest.test_case "v1 store image rejected" `Quick test_fstore_v1_rejected;
        Alcotest.test_case "fresh store scrubs clean" `Quick test_fstore_fresh_scrub_clean;
        Alcotest.test_case "wal torn append recovers prefix" `Quick test_wal_torn_append;
        Alcotest.test_case "wal short append retried" `Quick test_wal_short_append_retried;
        Alcotest.test_case "wal flips in every frame field" `Quick test_wal_flip_fields;
        Alcotest.test_case "wal audit" `Quick test_wal_audit;
      ] )

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
        qtest prop_crc_incremental;
        qtest prop_codec_roundtrip;
        Alcotest.test_case "codec corrupt input" `Quick test_codec_corrupt;
        Alcotest.test_case "fstore roundtrip" `Quick test_fstore_roundtrip;
        Alcotest.test_case "fstore accounting parity" `Quick test_fstore_accounting;
        Alcotest.test_case "fstore blind write" `Quick test_fstore_blind_write;
        Alcotest.test_case "fstore free/errors" `Quick test_fstore_free_errors;
        Alcotest.test_case "fstore persistence" `Quick test_fstore_persistence;
        Alcotest.test_case "fstore multi-page extents" `Quick test_fstore_multipage;
        Alcotest.test_case "fstore free-list reuse" `Quick test_fstore_free_reuse;
        Alcotest.test_case "fstore rejects garbage" `Quick test_fstore_corrupt;
        qtest prop_fstore_model;
        Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "wal reset" `Quick test_wal_reset;
        Alcotest.test_case "wal torn tail at every offset" `Quick test_wal_torn_tail_sweep;
        Alcotest.test_case "wal corrupt byte" `Quick test_wal_corrupt_byte;
        Alcotest.test_case "wal scan from arbitrary lsn" `Quick test_wal_scan_from;
        Alcotest.test_case "wal torn exactly at record boundary" `Quick
          test_wal_torn_at_record_boundary;
        Alcotest.test_case "wal audit on empty log" `Quick test_wal_audit_empty;
      ] )
