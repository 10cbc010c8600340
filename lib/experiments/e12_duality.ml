(* E12 — Figure 2 made quantitative: a segment query on line-based
   segments vs the 3-sided query on their far endpoints. The two
   answers share most segments (type 1) but diverge in both directions:
   segments intersected though their endpoint is outside the region
   (type 2), and endpoints inside the region whose segments miss the
   query (type 3). The divergence rate is what forces the paper to
   prove Lemma 1 instead of just reusing point PSTs. *)

open Segdb_io
open Segdb_geom
open Segdb_util
module W = Segdb_workload.Workload
module Pst = Segdb_pst.Pst
module T3 = Segdb_pst.Three_sided

let id = "e12"
let title = "E12: segment query vs 3-sided endpoint query (Figure 2)"
let validates = "Section 2 / Figure 2: the two query semantics differ"

let run (p : Harness.params) =
  let n = if p.quick then 1 lsl 12 else 1 lsl 15 in
  let vspan = 1000.0 and umax = 100.0 in
  let table =
    Table.create
      ~title:(Printf.sprintf "%s (N = %d)" title n)
      ~columns:
        [ "width%"; "both (1)"; "seg only (2)"; "endpoint only (3)"; "divergence%" ]
  in
  let rng = Rng.create p.seed in
  let lsegs = W.line_based rng ~n ~vspan ~umax in
  let io = Io_stats.create () in
  let pool = Block_store.Pool.create ~capacity:1024 in
  let pst = Pst.blocked ~node_capacity:Harness.block ~pool ~stats:io lsegs in
  (* endpoint set: far endpoints in (v, u) coordinates; ids align with
     lseg ids because line_based assigns them positionally *)
  let points = Array.map (fun (s : Lseg.t) -> (s.Lseg.far_v, s.Lseg.far_u)) lsegs in
  let t3 = T3.build ~node_capacity:Harness.block ~pool ~stats:io points in
  List.iter
    (fun width_pct ->
      let qrng = Rng.create (p.seed + 1) in
      let w = float_of_int width_pct /. 100.0 *. vspan in
      let both = ref 0 and seg_only = ref 0 and point_only = ref 0 in
      for _ = 1 to 30 do
        let uq = Rng.float qrng (0.8 *. umax) in
        let v = Rng.float qrng (vspan -. w) in
        let seg_ans =
          Pst.query_list pst (Lseg.query ~uq ~vlo:v ~vhi:(v +. w)) |> List.sort compare
        in
        let pt_ans = T3.query_ids t3 ~x1:v ~x2:(v +. w) ~y:uq in
        let rec diff a b (b1, s1, p1) =
          match (a, b) with
          | [], [] -> (b1, s1, p1)
          | x :: xs, y :: ys when x = y -> diff xs ys (b1 + 1, s1, p1)
          | x :: xs, (y :: _ as b) when x < y -> diff xs b (b1, s1 + 1, p1)
          | a, _ :: ys -> diff a ys (b1, s1, p1 + 1)
          | _ :: xs, [] -> diff xs [] (b1, s1 + 1, p1)
        in
        let b, s, pt = diff seg_ans pt_ans (0, 0, 0) in
        both := !both + b;
        seg_only := !seg_only + s;
        point_only := !point_only + pt
      done;
      let total = !both + !seg_only + !point_only in
      Table.add_row table
        [
          Table.cell_int width_pct;
          Table.cell_int !both;
          Table.cell_int !seg_only;
          Table.cell_int !point_only;
          Table.cell_float ~decimals:1
            (if total = 0 then 0.0
             else 100.0 *. float_of_int (!seg_only + !point_only) /. float_of_int total);
        ])
    [ 1; 5; 10; 25; 50 ];
  [ Harness.Table table ]
