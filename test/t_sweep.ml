(* Sweepline crossing detection: soundness (reported pairs truly cross,
   by the exact predicate) and agreement with the O(n^2) oracle. *)

open Segdb_geom
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let iseg_gen =
  QCheck.Gen.(
    let* n = 0 -- 60 in
    list_size (return n)
      (quad (int_range 0 40) (int_range 0 40) (int_range (-8) 8) (int_range (-8) 8)))

let segs_of raw =
  List.mapi (fun i (x, y, dx, dy) ->
      Segment.make ~id:i
        (float_of_int x, float_of_int y)
        (float_of_int (x + dx), float_of_int (y + dy)))
    raw
  |> Array.of_list

let prop_agrees_with_oracle =
  QCheck.Test.make ~name:"sweep agrees with exact pairwise check" ~count:400
    (QCheck.make
       ~print:(fun raw -> QCheck.Print.(list (quad int int int int)) raw)
       iseg_gen)
    (fun raw ->
      let segs = segs_of raw in
      let oracle = W.verify_nct segs in
      let swept = Sweep.verify_nct segs in
      swept = oracle)

let prop_sound =
  QCheck.Test.make ~name:"sweep-reported pairs truly cross" ~count:400
    (QCheck.make ~print:QCheck.Print.(list (quad int int int int)) iseg_gen)
    (fun raw ->
      let segs = segs_of raw in
      match Sweep.find_crossing segs with
      | None -> true
      | Some (a, b) -> Predicates.crosses (Predicates.of_segment a) (Predicates.of_segment b))

let prop_certified_families_pass =
  QCheck.Test.make ~name:"certified families pass the sweep at scale" ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1000))
    (fun seed ->
      let rng = Rng.create seed in
      Sweep.verify_nct (W.grid_city rng ~n:2000 ~span:500 ~max_len:40)
      && Sweep.verify_nct (W.temporal (Rng.create seed) ~n:2000 ~keys:50 ~horizon:2000)
      && Sweep.verify_nct (W.fans (Rng.create seed) ~n:1000 ~centers:5 ~span:500)
      && Sweep.verify_nct (W.roads (Rng.create seed) ~n:2000 ~span:500.0)
      && Sweep.verify_nct (W.long_spans (Rng.create seed) ~n:1000 ~span:500.0))

let test_detects_planted_crossing () =
  let rng = Rng.create 9 in
  let segs = W.grid_city rng ~n:1000 ~span:300 ~max_len:30 in
  (* plant a long diagonal through the middle *)
  let bad = Segment.make ~id:999_999 (10.0, 13.0) (290.0, 287.0) in
  let segs = Array.append segs [| bad |] in
  match Sweep.find_crossing segs with
  | Some (a, b) ->
      Alcotest.(check bool) "involves the diagonal" true
        (a.Segment.id = 999_999 || b.Segment.id = 999_999
        || Predicates.crosses (Predicates.of_segment a) (Predicates.of_segment b))
  | None -> Alcotest.fail "planted crossing not detected"

let test_touching_chain_clean () =
  (* a polyline chain touches at every joint: no crossing *)
  let segs =
    Array.init 50 (fun i ->
        Segment.make ~id:i
          (float_of_int i, float_of_int (i mod 3))
          (float_of_int (i + 1), float_of_int ((i + 1) mod 3)))
  in
  Alcotest.(check bool) "chain is NCT" true (Sweep.verify_nct segs)

let suite =
  ( "sweep",
    [
      Alcotest.test_case "detects planted crossing" `Quick test_detects_planted_crossing;
      Alcotest.test_case "touching chain clean" `Quick test_touching_chain_clean;
      qtest prop_agrees_with_oracle;
      qtest prop_sound;
      qtest prop_certified_families_pass;
    ] )

let test_tie_heavy_regression () =
  (* Degenerate tie webs (tiny integer grid, many shared endpoints) are
     where ordinate ties at an event abscissa decide the status order.
     Deterministic seeds, exact oracle. *)
  let at (x1, y1) (x2, y2) i =
    Segment.make ~id:i (float_of_int x1, float_of_int y1) (float_of_int x2, float_of_int y2)
  in
  (* #1 ends on #2 at (6,32), tying with it there while #3 starts at
     x = 6 and crosses #2: ordering that tie as just right of x = 6
     while #1 was still in the status hid the #2/#3 crossing *)
  let web =
    [| at (-2, 29) (6, 21) 0; at (5, 36) (6, 32) 1; at (5, 31) (12, 38) 2;
       at (6, 31) (7, 35) 3; at (5, 10) (12, 13) 4 |]
  in
  Alcotest.(check bool) "shared-endpoint tie web crosses" false (Sweep.verify_nct web);
  let rng = Rng.create 20260705 in
  for _case = 1 to 400 do
    let n = 5 + Rng.int rng 40 in
    let segs =
      Array.init n (fun i ->
          let x = Rng.int rng 10 and y = Rng.int rng 10 in
          let dx = Rng.int rng 7 - 3 and dy = Rng.int rng 7 - 3 in
          Segment.make ~id:i
            (float_of_int x, float_of_int y)
            (float_of_int (x + dx), float_of_int (y + dy)))
    in
    let expected = W.verify_nct segs in
    let got = Sweep.verify_nct segs in
    if got <> expected then
      Alcotest.failf "tie-heavy case diverged (n=%d, expected %b, got %b)" n expected got
  done

let suite =
  let name, cases = suite in
  (name, cases @ [ Alcotest.test_case "tie-heavy regression" `Quick test_tie_heavy_regression ])
