(* External PST tests: query correctness against a naive oracle on
   certified-NCT line-based sets, Find (Lemma 1), heap/key invariants,
   insertion, space and I/O behaviour. *)

open Segdb_io
open Segdb_geom
module Pst = Segdb_pst.Pst

let qtest = QCheck_alcotest.to_alcotest

let mk_env ?(pool = 256) () =
  (Block_store.Pool.create ~capacity:pool, Io_stats.create ())

(* -------- generators -------- *)

(* Certified non-crossing family: bases and slopes co-sorted. *)
let nct_lsegs rng n ~vspan ~umax =
  let bases = Array.init n (fun _ -> Segdb_util.Rng.float rng vspan) in
  let slopes = Array.init n (fun _ -> Segdb_util.Rng.float rng 6.0 -. 3.0) in
  Array.sort compare bases;
  Array.sort compare slopes;
  Array.init n (fun i ->
      let far_u = 0.1 +. Segdb_util.Rng.float rng umax in
      Lseg.make ~id:i ~base_v:bases.(i) ~far_u ~far_v:(bases.(i) +. (slopes.(i) *. far_u)) ())

let lseg_print (s : Lseg.t) =
  Printf.sprintf "L%d(b=%g,u=%g,v=%g)" s.Lseg.id s.Lseg.base_v s.Lseg.far_u s.Lseg.far_v

let scenario_gen =
  QCheck.Gen.(
    let* seed = 0 -- 100000 in
    let* n = 0 -- 120 in
    let* cap = 2 -- 8 in
    let* branching = oneofl [ 2; 4; 8 ] in
    let* uq = float_range 0.0 30.0 in
    let* v1 = float_range (-10.0) 110.0 in
    let* width = float_range 0.0 60.0 in
    return (seed, n, cap, branching, uq, v1, width))

let scenario_print (seed, n, cap, branching, uq, v1, width) =
  Printf.sprintf "seed=%d n=%d cap=%d f=%d uq=%g v=[%g,%g]" seed n cap branching uq v1
    (v1 +. width)

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

let ids xs = List.map (fun (s : Lseg.t) -> s.Lseg.id) xs |> List.sort compare

(* The ids a PST query reports, sorted. *)
let answer t q = List.sort compare (Pst.query_list t q)

let oracle segs q = Array.to_list segs |> List.filter (Lseg.matches q)

let build_of (seed, n, cap, branching, _, _, _) =
  let pool, io = mk_env () in
  let rng = Segdb_util.Rng.create seed in
  let segs = nct_lsegs rng n ~vspan:100.0 ~umax:25.0 in
  let t = Pst.build ~node_capacity:cap ~branching ~pool ~stats:io segs in
  (t, segs, io)

let prop_query_oracle =
  QCheck.Test.make ~name:"pst query equals naive filter" ~count:400 scenario_arb
    (fun ((_, _, _, _, uq, v1, width) as sc) ->
      let t, segs, _ = build_of sc in
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      answer t q = ids (oracle segs q))

let prop_invariants =
  QCheck.Test.make ~name:"pst build invariants" ~count:200 scenario_arb (fun sc ->
      let t, segs, _ = build_of sc in
      Pst.check_invariants t && Pst.size t = Array.length segs)

let prop_find_extremes =
  QCheck.Test.make ~name:"pst find leftmost/rightmost (Lemma 1)" ~count:400 scenario_arb
    (fun ((_, _, _, _, uq, v1, width) as sc) ->
      let t, segs, _ = build_of sc in
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      let matches = oracle segs q |> List.sort Lseg.compare_key in
      let expect_l = match matches with [] -> None | x :: _ -> Some x in
      let expect_r = match List.rev matches with [] -> None | x :: _ -> Some x in
      let got_l = Pst.find_leftmost t q and got_r = Pst.find_rightmost t q in
      let eq a b =
        match (a, b) with
        | None, None -> true
        | Some x, Some y -> Lseg.equal x y
        | _ -> false
      in
      eq got_l expect_l && eq got_r expect_r)

let prop_insert_oracle =
  QCheck.Test.make ~name:"pst insert preserves queries" ~count:200 scenario_arb
    (fun ((seed, n, cap, branching, uq, v1, width) as _sc) ->
      let pool, io = mk_env () in
      let rng = Segdb_util.Rng.create seed in
      let segs = nct_lsegs rng (max n 1) ~vspan:100.0 ~umax:25.0 in
      let k = Array.length segs / 2 in
      let t = Pst.build ~node_capacity:cap ~branching ~pool ~stats:io (Array.sub segs 0 k) in
      for i = k to Array.length segs - 1 do
        Pst.insert t segs.(i)
      done;
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      Pst.check_invariants t
      && Pst.size t = Array.length segs
      && answer t q = ids (oracle segs q))

let prop_line_query =
  (* uq = 0 with an unbounded v-range must return everything. *)
  QCheck.Test.make ~name:"pst full query returns all" ~count:100 scenario_arb (fun sc ->
      let t, segs, _ = build_of sc in
      let q = Lseg.query ~uq:0.0 ~vlo:neg_infinity ~vhi:infinity in
      List.length (Pst.query_list t q) = Array.length segs)

let test_empty () =
  let pool, io = mk_env () in
  let t = Pst.build ~pool ~stats:io [||] in
  Alcotest.(check int) "size" 0 (Pst.size t);
  Alcotest.(check int) "blocks" 0 (Pst.block_count t);
  Alcotest.(check bool) "invariants" true (Pst.check_invariants t);
  let q = Lseg.query ~uq:1.0 ~vlo:0.0 ~vhi:1.0 in
  Alcotest.(check int) "query" 0 (Pst.count t q);
  Alcotest.(check bool) "find" true (Pst.find_leftmost t q = None)

let test_insert_into_empty () =
  let pool, io = mk_env () in
  let t = Pst.build ~node_capacity:4 ~pool ~stats:io [||] in
  let rng = Segdb_util.Rng.create 11 in
  let segs = nct_lsegs rng 50 ~vspan:100.0 ~umax:25.0 in
  Array.iter (Pst.insert t) segs;
  Alcotest.(check int) "size" 50 (Pst.size t);
  Alcotest.(check bool) "invariants" true (Pst.check_invariants t);
  let q = Lseg.query ~uq:3.0 ~vlo:10.0 ~vhi:70.0 in
  Alcotest.(check bool) "query matches oracle" true
    (answer t q = ids (oracle segs q))

let test_space_linear () =
  let pool, io = mk_env ~pool:1024 () in
  let rng = Segdb_util.Rng.create 5 in
  let n = 20_000 and cap = 64 in
  let segs = nct_lsegs rng n ~vspan:1000.0 ~umax:100.0 in
  let t = Pst.build ~node_capacity:cap ~pool ~stats:io segs in
  let blocks = Pst.block_count t in
  (* linear space: within a small constant of n/B *)
  Alcotest.(check bool)
    (Printf.sprintf "blocks %d vs n/B %d" blocks (n / cap))
    true
    (blocks <= 4 * (n / cap));
  Alcotest.(check int) "all stored" n (Pst.size t)

let test_query_io_logarithmic () =
  (* Lemma 2: O(log n + t) I/Os per query with a cold cache. *)
  let pool = Block_store.Pool.create ~capacity:8 in
  let io = Io_stats.create () in
  let rng = Segdb_util.Rng.create 17 in
  let n = 30_000 and cap = 64 in
  let segs = nct_lsegs rng n ~vspan:1000.0 ~umax:100.0 in
  let t = Pst.build ~node_capacity:cap ~pool ~stats:io segs in
  let worst = ref 0 in
  for i = 0 to 49 do
    let v = float_of_int i *. 20.0 in
    let q = Lseg.query ~uq:90.0 ~vlo:v ~vhi:(v +. 2.0) in
    let before = Io_stats.snapshot io in
    let tq = Pst.count t q in
    let cost = Io_stats.snapshot_total (Io_stats.diff before (Io_stats.snapshot io)) in
    let budget = (4 * (Pst.height t + 1)) + (8 * ((tq / cap) + 1)) in
    if cost > budget then incr worst
  done;
  Alcotest.(check int) "queries within logarithmic budget" 0 !worst

let test_blocked_shallower_than_binary () =
  let pool, io = mk_env ~pool:2048 () in
  let rng = Segdb_util.Rng.create 23 in
  let segs = nct_lsegs rng 10_000 ~vspan:1000.0 ~umax:100.0 in
  let b = Pst.binary ~node_capacity:16 ~pool ~stats:io segs in
  let m = Pst.blocked ~node_capacity:16 ~pool ~stats:io segs in
  Alcotest.(check bool)
    (Printf.sprintf "blocked height %d < binary height %d" (Pst.height m) (Pst.height b))
    true
    (Pst.height m < Pst.height b)

let suite =
  ( "pst",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "insert into empty" `Quick test_insert_into_empty;
      Alcotest.test_case "space linear" `Quick test_space_linear;
      Alcotest.test_case "query io logarithmic" `Quick test_query_io_logarithmic;
      Alcotest.test_case "blocked shallower" `Quick test_blocked_shallower_than_binary;
      qtest prop_query_oracle;
      qtest prop_invariants;
      qtest prop_find_extremes;
      qtest prop_insert_oracle;
      qtest prop_line_query;
    ] )



(* -------- Three_sided -------- *)

let prop_three_sided_oracle =
  QCheck.Test.make ~name:"three-sided query equals naive filter" ~count:300
    (QCheck.make
       ~print:(fun (pts, x1, w, y) ->
         Printf.sprintf "n=%d x=[%g,%g] y>=%g" (List.length pts) x1 (x1 +. w) y)
       QCheck.Gen.(
         quad
           (list_size (0 -- 100) (pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0)))
           (float_range (-60.0) 60.0) (float_range 0.0 60.0) (float_range (-60.0) 60.0)))
    (fun (pts, x1, w, y) ->
      let pool, io = mk_env () in
      let points = Array.of_list pts in
      let t = Segdb_pst.Three_sided.build ~node_capacity:4 ~pool ~stats:io points in
      let x2 = x1 +. w in
      let got = Segdb_pst.Three_sided.query_ids t ~x1 ~x2 ~y in
      let expected =
        List.filteri (fun _ _ -> true) pts
        |> List.mapi (fun i (px, py) -> (i, px, py))
        |> List.filter (fun (_, px, py) -> x1 <= px && px <= x2 && py >= y)
        |> List.map (fun (i, _, _) -> i)
      in
      got = expected)

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_three_sided_oracle ])

let prop_delete_oracle =
  QCheck.Test.make ~name:"pst delete preserves queries and invariants" ~count:200 scenario_arb
    (fun ((seed, n, cap, branching, uq, v1, width) as _sc) ->
      QCheck.assume (n > 0);
      let pool, io = mk_env () in
      let rng = Segdb_util.Rng.create seed in
      let segs = nct_lsegs rng (max n 1) ~vspan:100.0 ~umax:25.0 in
      let t = Pst.build ~node_capacity:cap ~branching ~pool ~stats:io segs in
      let doomed, kept =
        Array.to_list segs |> List.partition (fun (s : Lseg.t) -> s.Lseg.id mod 3 = 0)
      in
      let ok_del = List.for_all (Pst.delete t) doomed in
      let gone = List.for_all (fun s -> not (Pst.delete t s)) doomed in
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      ok_del && gone
      && Pst.size t = List.length kept
      && Pst.check_invariants t
      && answer t q = ids (List.filter (Lseg.matches q) kept))

let prop_delete_insert_mix =
  QCheck.Test.make ~name:"pst interleaved insert/delete" ~count:100 scenario_arb
    (fun (seed, n, cap, branching, uq, v1, width) ->
      QCheck.assume (n > 4);
      let pool, io = mk_env () in
      let rng = Segdb_util.Rng.create seed in
      let segs = nct_lsegs rng n ~vspan:100.0 ~umax:25.0 in
      let k = n / 2 in
      let t = Pst.build ~node_capacity:cap ~branching ~pool ~stats:io (Array.sub segs 0 k) in
      let live = Hashtbl.create 16 in
      Array.iteri (fun i s -> if i < k then Hashtbl.replace live i s) segs;
      for i = k to n - 1 do
        Pst.insert t segs.(i);
        Hashtbl.replace live i segs.(i);
        let victim = (i * 7) mod k in
        if Hashtbl.mem live victim then begin
          ignore (Pst.delete t segs.(victim));
          Hashtbl.remove live victim
        end
      done;
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      let expect =
        Hashtbl.fold
          (fun _ (s : Lseg.t) acc -> if Lseg.matches q s then s.Lseg.id :: acc else acc)
          live []
        |> List.sort compare
      in
      Pst.check_invariants t && answer t q = expect)

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_delete_oracle; qtest prop_delete_insert_mix ])

let prop_find_bfs_agrees =
  QCheck.Test.make ~name:"frontier Find agrees with DFS Find and stays narrow" ~count:300
    scenario_arb
    (fun ((_, _, _, branching, uq, v1, width) as sc) ->
      let t, segs, _ = build_of sc in
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      let prof = Pst.find_profile t q ~leftmost:true in
      let dfs = Pst.find_leftmost t q in
      let agree =
        match (prof.result, dfs) with
        | None, None -> true
        | Some a, Some b -> Lseg.equal a b
        | _ -> false
      in
      (* Lemma 1 states <= 2 for the binary tree; a b-ary node can fan
         out to a level of siblings before the witnesses tighten *)
      agree
      && prof.max_width <= 2 * branching
      && (Array.length segs = 0 || prof.levels <= Pst.height t))

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_find_bfs_agrees ])

let prop_two_phase_agrees =
  QCheck.Test.make ~name:"two-phase Report (Appendix A) equals one-pass query" ~count:300
    scenario_arb
    (fun ((_, _, _, _, uq, v1, width) as sc) ->
      let t, segs, _ = build_of sc in
      let q = Lseg.query ~uq ~vlo:v1 ~vhi:(v1 +. width) in
      let two = ref [] in
      Pst.query_two_phase t q ~f:(fun id -> two := id :: !two);
      List.sort compare !two = ids (oracle segs q))

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_two_phase_agrees ])

(* Memory guard: an empty blocked PST over a 1-block pool is a few
   words (its store holds no preallocated tables). *)
let test_empty_pst_words () =
  let pool = Block_store.Pool.create ~capacity:1 in
  let t = Pst.blocked ~pool ~stats:(Io_stats.create ()) [||] in
  let w = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check bool) (Printf.sprintf "empty pst is %d words (< 200)" w) true (w < 200)

(* Oracle under churn: a blocked PST with 4-segment nodes takes
   interleaved inserts, deletes and queries from a candidate set that is
   non-crossing as a whole, and every query must equal a brute-force
   filter of the live set; Find and the two-phase Report must agree with
   it too. Bases sit on a coarse grid so many segments share a base
   point (ties broken by slope, then id), one in five segments is a
   point on the base line (far_u = 0), and a third of the queries run
   at uq = 0. *)
let churn_candidates seed n =
  let rng = Segdb_util.Rng.create seed in
  let bases = Array.init n (fun _ -> float_of_int (Segdb_util.Rng.int rng 12)) in
  let slopes = [| -2.0; -1.0; -0.5; 0.0; 0.5; 1.0; 2.0 |] in
  let ks = Array.init n (fun _ -> Segdb_util.Rng.int rng (Array.length slopes)) in
  Array.sort compare bases;
  Array.sort compare ks;
  Array.init n (fun i ->
      if Segdb_util.Rng.int rng 5 = 0 then
        Lseg.make ~id:i ~base_v:bases.(i) ~far_u:0.0 ~far_v:bases.(i) ()
      else
        let far_u = float_of_int (1 + Segdb_util.Rng.int rng 10) in
        Lseg.make ~id:i ~base_v:bases.(i) ~far_u
          ~far_v:(bases.(i) +. (slopes.(ks.(i)) *. far_u))
          ())

let prop_churn_oracle =
  QCheck.Test.make ~name:"pst oracle under churn" ~count:200
    (QCheck.make
       ~print:(fun (seed, n, ops) ->
         Printf.sprintf "seed=%d n=%d ops=%s" seed n
           (String.concat ";"
              (List.map (fun (k, i, a, b, c) -> Printf.sprintf "(%d,%d,%d,%d,%d)" k i a b c) ops)))
       QCheck.Gen.(
         triple (0 -- 100000) (1 -- 60)
           (list_size (0 -- 120)
              (let* k = 0 -- 2 and* i = 0 -- 59 and* a = 0 -- 30 in
               let* b = 0 -- 60 and* c = 0 -- 20 in
               return (k, i, a, b, c)))))
    (fun (seed, n, ops) ->
      let pool, io = mk_env ~pool:16 () in
      let cands = churn_candidates seed n in
      let live = Array.make n false in
      let k0 = n / 3 in
      for i = 0 to k0 - 1 do
        live.(i) <- true
      done;
      let t = Pst.blocked ~node_capacity:4 ~pool ~stats:io (Array.sub cands 0 k0) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (kind, i, a, b, c) ->
          let i = i mod n in
          match kind with
          | 0 ->
              if not live.(i) then begin
                Pst.insert t cands.(i);
                live.(i) <- true
              end
          | 1 ->
              check (Pst.delete t cands.(i) = live.(i));
              live.(i) <- false
          | _ ->
              (* uq = 0 when a < 10, else 0.5 .. 10 *)
              let uq = if a < 10 then 0.0 else float_of_int (a - 10) /. 2.0 in
              let vlo = float_of_int (b - 25) /. 2.0 in
              let q = Lseg.query ~uq ~vlo ~vhi:(vlo +. (float_of_int c /. 2.0)) in
              let expect =
                Array.to_list cands
                |> List.filter (fun (s : Lseg.t) -> live.(s.id) && Lseg.matches q s)
                |> List.sort Lseg.compare_key
              in
              check (answer t q = ids expect);
              let two = ref [] in
              Pst.query_two_phase t q ~f:(fun id -> two := id :: !two);
              check (List.sort compare !two = ids expect);
              let same a b =
                match (a, b) with
                | None, [] -> true
                | Some x, y :: _ -> Lseg.equal x y
                | _ -> false
              in
              check (same (Pst.find_leftmost t q) expect);
              check (same (Pst.find_rightmost t q) (List.rev expect)))
        ops;
      !ok && Pst.check_invariants t
      && Pst.size t = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 live)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "empty pst memory guard" `Quick test_empty_pst_words;
        qtest prop_churn_oracle;
      ] )
