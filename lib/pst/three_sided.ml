open Segdb_geom

type t = {
  pst : Pst.t;
  points : (float * float) array;
  y_offset : float; (* Lseg depths must be >= 0 *)
}

let build ?node_capacity ?branching ~pool ~stats points =
  let y_offset =
    Array.fold_left (fun acc (_, y) -> Float.min acc y) 0.0 points
  in
  let lsegs =
    Array.mapi
      (fun i (x, y) -> Lseg.make ~id:i ~base_v:x ~far_u:(y -. y_offset) ~far_v:x ())
      points
  in
  let pst = Pst.build ?node_capacity ?branching ~pool ~stats lsegs in
  { pst; points = Array.copy points; y_offset }

let size t = Pst.size t.pst
let block_count t = Pst.block_count t.pst

let query t ~x1 ~x2 ~y ~f =
  if x1 <= x2 then begin
    let uq = Float.max 0.0 (y -. t.y_offset) in
    (* a vertical lseg crosses depth uq iff its point's y >= y (after
       clamping, which only matters when the whole plane qualifies) *)
    let q = Lseg.query ~uq ~vlo:x1 ~vhi:x2 in
    Pst.query t.pst q ~f:(fun id ->
        let px, py = t.points.(id) in
        if py >= y then f id (px, py))
  end

let query_ids t ~x1 ~x2 ~y =
  let acc = ref [] in
  query t ~x1 ~x2 ~y ~f:(fun id _ -> acc := id :: !acc);
  List.sort compare !acc

let count t ~x1 ~x2 ~y =
  let n = ref 0 in
  query t ~x1 ~x2 ~y ~f:(fun _ _ -> incr n);
  !n
