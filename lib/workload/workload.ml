open Segdb_util
open Segdb_geom

let reid segs = Array.mapi (fun i s -> Segment.with_id s i) segs

let truncate_to n segs =
  if Array.length segs <= n then segs else Array.sub segs 0 n

(* ---------------- roads ---------------- *)

let roads rng ~n ~span =
  if n <= 0 then [||]
  else begin
    let tracks = max 1 (int_of_float (sqrt (float_of_int n) /. 2.0)) in
    (* 10% of pieces are dropped below; overshoot so [n] survive *)
    let per_track = (((5 * n / 4) + tracks - 1) / tracks) + 4 in
    let band = span /. float_of_int tracks in
    let amplitude = 0.35 *. band in
    let acc = ref [] in
    for k = 0 to tracks - 1 do
      let base = (float_of_int k +. 0.5) *. band in
      let dx = span /. float_of_int per_track in
      let w = ref (Rng.float rng 2.0 -. 1.0) in
      let prev = ref (0.0, base +. (amplitude *. !w)) in
      for j = 1 to per_track do
        w := Float.max (-1.0) (Float.min 1.0 (!w +. (Rng.float rng 0.6 -. 0.3)));
        let p = (float_of_int j *. dx, base +. (amplitude *. !w)) in
        (* occasional gaps make the polylines realistic road pieces *)
        if Rng.float rng 1.0 > 0.1 then acc := Segment.make !prev p :: !acc;
        prev := p
      done
    done;
    reid (truncate_to n (Array.of_list !acc))
  end

let uniform rng ~n ~span =
  if n <= 0 then [||]
  else begin
    (* many narrow tracks: short segments with varied direction *)
    let tracks = max 1 (n / 8) in
    let per_track = ((n + tracks - 1) / tracks) + 1 in
    let band = span /. float_of_int tracks in
    let amplitude = 0.45 *. band in
    let acc = ref [] in
    for k = 0 to tracks - 1 do
      let base = (float_of_int k +. 0.5) *. band in
      let x = ref (Rng.float rng (span /. 4.0)) in
      let y = ref (base +. (amplitude *. (Rng.float rng 2.0 -. 1.0))) in
      let j = ref 0 in
      while !j < per_track && !x < span do
        let nx = !x +. (span /. float_of_int (4 * per_track)) +. Rng.float rng (span /. float_of_int (2 * per_track)) in
        let ny = base +. (amplitude *. (Rng.float rng 2.0 -. 1.0)) in
        if Rng.float rng 1.0 > 0.15 then acc := Segment.make (!x, !y) (nx, ny) :: !acc;
        x := nx;
        y := ny;
        incr j
      done
    done;
    reid (truncate_to n (Array.of_list !acc))
  end

let long_spans rng ~n ~span =
  if n <= 0 then [||]
  else begin
    let bases = Array.init n (fun _ -> Rng.float rng span) in
    let slopes = Array.init n (fun _ -> (Rng.float rng 0.4 -. 0.2) *. (span /. 1000.0)) in
    Array.sort compare bases;
    Array.sort compare slopes;
    reid
      (Array.init n (fun i ->
           let x1 = Rng.float rng (0.5 *. span) in
           let x2 = x1 +. (0.3 *. span) +. Rng.float rng (0.5 *. span) in
           let x2 = Float.min x2 span in
           let y x = bases.(i) +. (slopes.(i) *. x) in
           Segment.make (x1, y x1) (x2, y x2)))
  end

(* ---------------- grid city ---------------- *)

let grid_city rng ~n ~span ~max_len =
  if n <= 0 then [||]
  else begin
    let max_len = max 2 max_len in
    (* horizontal streets per row / vertical per column, kept disjoint
       within their line by rejection *)
    let horiz : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
    let vert : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
    let disjoint existing (a, b) =
      List.for_all (fun (c, d) -> b < c || d < a) existing
    in
    let tries = ref 0 and placed = ref 0 in
    (* place about n raw streets; crossing splits only add more *)
    while !placed < n && !tries < 20 * n do
      incr tries;
      let len = 2 + Rng.int rng (max_len - 1) in
      let table = if Rng.bool rng then horiz else vert in
      let line = Rng.int rng (span + 1) in
      let start = Rng.int rng (max 1 (span - len)) in
      let iv = (start, start + len) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt table line) in
      if disjoint existing iv then begin
        Hashtbl.replace table line (iv :: existing);
        incr placed
      end
    done;
    (* exact crossing points: H (y, [x1,x2]) x V (x, [y1,y2]) *)
    let cuts_h : (int * int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let cuts_v : (int * int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let note table key x =
      match Hashtbl.find_opt table key with
      | Some l -> l := x :: !l
      | None -> Hashtbl.add table key (ref [ x ])
    in
    Hashtbl.iter
      (fun vx ivs ->
        List.iter
          (fun (vy1, vy2) ->
            Hashtbl.iter
              (fun hy hivs ->
                if vy1 < hy && hy < vy2 then
                  List.iter
                    (fun (hx1, hx2) ->
                      if hx1 < vx && vx < hx2 then begin
                        note cuts_h (hy, hx1, hx2) vx;
                        note cuts_v (vx, vy1, vy2) hy
                      end)
                    hivs)
              horiz)
          ivs)
      vert;
    let acc = ref [] in
    let emit_pieces mk lo hi cuts =
      let cuts = List.sort_uniq compare cuts in
      let rec go a = function
        | [] -> if a < hi then acc := mk a hi :: !acc
        | c :: rest ->
            if a < c then acc := mk a c :: !acc;
            go c rest
      in
      go lo cuts
    in
    Hashtbl.iter
      (fun hy ivs ->
        List.iter
          (fun (x1, x2) ->
            let cuts =
              match Hashtbl.find_opt cuts_h (hy, x1, x2) with Some l -> !l | None -> []
            in
            emit_pieces
              (fun a b -> Segment.make (float_of_int a, float_of_int hy) (float_of_int b, float_of_int hy))
              x1 x2 cuts)
          ivs)
      horiz;
    Hashtbl.iter
      (fun vx ivs ->
        List.iter
          (fun (y1, y2) ->
            let cuts =
              match Hashtbl.find_opt cuts_v (vx, y1, y2) with Some l -> !l | None -> []
            in
            emit_pieces
              (fun a b -> Segment.make (float_of_int vx, float_of_int a) (float_of_int vx, float_of_int b))
              y1 y2 cuts)
          ivs)
      vert;
    (* horizontals were emitted before verticals: shuffle so truncation
       keeps a balanced mix (any subset of an NCT set is NCT) *)
    let out = Array.of_list !acc in
    Rng.shuffle rng out;
    reid (truncate_to n out)
  end

(* ---------------- temporal ---------------- *)

let temporal rng ~n ~keys ~horizon =
  if n <= 0 then [||]
  else begin
    let keys = max 1 keys in
    (* per-key cursors so later rounds extend a history instead of
       overlaying a second one on the same row *)
    let cursor = Array.make keys (-1) in
    let acc = ref [] in
    let count = ref 0 in
    let k = ref 0 in
    let exhausted = ref 0 in
    while !count < n && !exhausted < keys do
      let key = !k mod keys in
      if cursor.(key) < horizon then begin
        let y = float_of_int key in
        if cursor.(key) < 0 then cursor.(key) <- Rng.int rng (max 1 (horizon / 10));
        let t = cursor.(key) in
        let len = 1 + Rng.int rng (max 1 (horizon / 20)) in
        let stop = min (t + len) horizon in
        acc := Segment.make (float_of_int t, y) (float_of_int stop, y) :: !acc;
        incr count;
        (* versions either abut (touching endpoints) or leave a gap *)
        cursor.(key) <-
          (if Rng.float rng 1.0 < 0.3 then stop + 1 + Rng.int rng (max 1 (horizon / 20))
           else stop);
        if cursor.(key) >= horizon then incr exhausted
      end;
      incr k
    done;
    reid (truncate_to n (Array.of_list !acc))
  end

(* ---------------- fans ---------------- *)

let fans rng ~n ~centers ~span =
  if n <= 0 then [||]
  else begin
    let centers = max 1 centers in
    let strip = max 4 (span / centers) in
    let per_center = (n + centers - 1) / centers in
    let acc = ref [] in
    for c = 0 to centers - 1 do
      let x0 = (c * strip) + (strip / 2) in
      (* one ray per primitive direction: same-center collinear far
         points would overlap in more than a point *)
      let seen = Hashtbl.create 16 in
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      let made = ref 0 and tries = ref 0 in
      while !made < per_center && !tries < 10 * per_center do
        incr tries;
        let fx = (c * strip) + 1 + Rng.int rng (strip - 2) in
        let fy = 1 + Rng.int rng (max 1 span) in
        let g = gcd (abs (fx - x0)) fy in
        let dir = ((fx - x0) / g, fy / g) in
        if not (Hashtbl.mem seen dir) then begin
          Hashtbl.add seen dir ();
          acc :=
            Segment.make (float_of_int x0, 0.0) (float_of_int fx, float_of_int fy) :: !acc;
          incr made
        end
      done
    done;
    reid (truncate_to n (Array.of_list !acc))
  end

(* ---------------- line-based families ---------------- *)

let line_based rng ~n ~vspan ~umax =
  let bases = Array.init n (fun _ -> Rng.float rng vspan) in
  let slopes = Array.init n (fun _ -> Rng.float rng 6.0 -. 3.0) in
  Array.sort compare bases;
  Array.sort compare slopes;
  Array.init n (fun i ->
      let far_u = 0.05 +. Rng.float rng umax in
      Lseg.make ~id:i ~base_v:bases.(i) ~far_u
        ~far_v:(bases.(i) +. (slopes.(i) *. far_u))
        ())

let line_based_fan rng ~n ~centers ~vspan ~umax =
  let centers = max 1 centers in
  let per = (n + centers - 1) / centers in
  let out = Array.make n (Lseg.make ~base_v:0.0 ~far_u:0.0 ~far_v:0.0 ()) in
  let idx = ref 0 in
  for c = 0 to centers - 1 do
    let base = float_of_int (c + 1) *. (vspan /. float_of_int (centers + 1)) in
    for _ = 1 to per do
      if !idx < n then begin
        let far_u = 0.05 +. Rng.float rng umax in
        let slope = Rng.float rng 2.0 -. 1.0 in
        out.(!idx) <-
          Lseg.make ~id:!idx ~base_v:base ~far_u ~far_v:(base +. (slope *. far_u)) ();
        incr idx
      end
    done
  done;
  out

(* ---------------- queries ---------------- *)

let segment_queries rng ~n ~span ~selectivity =
  let h = Float.max 0.0 (selectivity *. span) in
  Array.init n (fun _ ->
      let x = Rng.float rng span in
      let yc = Rng.float rng span in
      Vquery.segment ~x ~ylo:(yc -. (h /. 2.0)) ~yhi:(yc +. (h /. 2.0)))

let line_queries rng ~n ~span =
  Array.init n (fun _ -> Vquery.line ~x:(Rng.float rng span))

let ray_queries rng ~n ~span =
  Array.init n (fun i ->
      let x = Rng.float rng span and y = Rng.float rng span in
      if i mod 2 = 0 then Vquery.ray_up ~x ~ylo:y else Vquery.ray_down ~x ~yhi:y)

let mixed_queries rng ~n ~span ~selectivity =
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> Vquery.line ~x:(Rng.float rng span)
      | 1 ->
          let x = Rng.float rng span and y = Rng.float rng span in
          if i mod 2 = 0 then Vquery.ray_up ~x ~ylo:y else Vquery.ray_down ~x ~yhi:y
      | _ ->
          let h = selectivity *. span in
          let x = Rng.float rng span and yc = Rng.float rng span in
          Vquery.segment ~x ~ylo:(yc -. (h /. 2.0)) ~yhi:(yc +. (h /. 2.0)))

(* ---------------- checking ---------------- *)

let verify_nct segs =
  let isegs = Array.map Predicates.of_segment segs in
  Predicates.nct_set isegs
