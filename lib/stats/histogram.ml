type kind = Equi_width | Equi_depth | Maxdiff | Serial | V_optimal

let kind_to_string = function
  | Equi_width -> "equi-width"
  | Equi_depth -> "equi-depth"
  | Maxdiff -> "maxdiff"
  | Serial -> "serial"
  | V_optimal -> "v-optimal"

type bucket = {
  lo : float;
  hi : float;
  rows : float;
  distinct : float;
}

type t = {
  kind : kind;
  bkts : bucket array;
  total : float;
}

let kind t = t.kind
let buckets t = Array.to_list t.bkts
let total_rows t = t.total
let distinct t = Array.fold_left (fun acc b -> acc +. b.distinct) 0.0 t.bkts

let min_value t =
  if Array.length t.bkts = 0 then None else Some t.bkts.(0).lo

let max_value t =
  let n = Array.length t.bkts in
  if n = 0 then None else Some t.bkts.(n - 1).hi

(* Frequency table of a data array: the sorted distinct values and their
   counts, as two parallel arrays (floats unboxed).  NaNs sort first under
   [Float.compare] and are left out: a NaN has no place in the domain, and
   as a bucket bound it would poison every width and comparison. *)
let freq_table data =
  let sorted = Array.copy data in
  Heap_sort.sort_floats sorted;
  let n = Array.length sorted in
  let vals = Array.make n 0.0 and cnts = Array.make n 0 in
  let k = ref 0 and i = ref 0 in
  while !i < n && Float.is_nan sorted.(!i) do incr i done;
  while !i < n do
    let v = sorted.(!i) in
    let j = ref !i in
    while !j < n && Float.equal sorted.(!j) v do incr j done;
    vals.(!k) <- v;
    cnts.(!k) <- !j - !i;
    incr k;
    i := !j
  done;
  (Array.sub vals 0 !k, Array.sub cnts 0 !k)

let of_buckets kind bkts =
  let total = Array.fold_left (fun acc b -> acc +. b.rows) 0.0 bkts in
  { kind; bkts; total }

let sum_counts cnts =
  Array.fold_left (fun a c -> a +. float_of_int c) 0.0 cnts

let build_equi_width ~buckets (vals, cnts) =
  let n = Array.length vals in
  if n = 0 then [||]
  else begin
    let lo = vals.(0) and hi = vals.(n - 1) in
    let nb = max 1 (min buckets n) in
    let width = (hi -. lo) /. float_of_int nb in
    if width <= 0.0 then
      [| { lo; hi; rows = sum_counts cnts; distinct = float_of_int n } |]
    else begin
      let out = ref [] in
      let idx = ref 0 in
      for b = 0 to nb - 1 do
        let b_hi = if b = nb - 1 then hi else lo +. (width *. float_of_int (b + 1)) in
        let rows = ref 0.0 and d = ref 0.0 in
        let v_lo = ref infinity and v_hi = ref neg_infinity in
        while
          !idx < n
          && (vals.(!idx) < b_hi || (b = nb - 1 && vals.(!idx) <= hi))
        do
          let v = vals.(!idx) in
          rows := !rows +. float_of_int cnts.(!idx);
          d := !d +. 1.0;
          if v < !v_lo then v_lo := v;
          if v > !v_hi then v_hi := v;
          incr idx
        done;
        if !rows > 0.0 then
          out := { lo = !v_lo; hi = !v_hi; rows = !rows; distinct = !d } :: !out
      done;
      Array.of_list (List.rev !out)
    end
  end

let build_equi_depth ~buckets (vals, cnts) =
  let n = Array.length vals in
  if n = 0 then [||]
  else begin
    let total = sum_counts cnts in
    let nb = max 1 (min buckets n) in
    let target = total /. float_of_int nb in
    let out = ref [] in
    let cur_rows = ref 0.0 and cur_d = ref 0.0 in
    let cur_lo = ref vals.(0) in
    let flush hi =
      if !cur_rows > 0.0 then
        out := { lo = !cur_lo; hi; rows = !cur_rows; distinct = !cur_d } :: !out;
      cur_rows := 0.0;
      cur_d := 0.0
    in
    for i = 0 to n - 1 do
      let v = vals.(i) in
      if !cur_rows = 0.0 then cur_lo := v;
      cur_rows := !cur_rows +. float_of_int cnts.(i);
      cur_d := !cur_d +. 1.0;
      if !cur_rows >= target && i < n - 1 then flush v
    done;
    flush vals.(n - 1);
    Array.of_list (List.rev !out)
  end

(* MaxDiff(V,A): boundaries at the largest differences between the "areas"
   (frequency * spread) of adjacent distinct values.  Sorting indices by
   difference breaks ties exactly as sorting (difference, index) pairs on
   the difference does: the heap sort's comparisons are the same. *)
let build_maxdiff ~buckets (vals, cnts) =
  let n = Array.length vals in
  if n = 0 then [||]
  else if n = 1 then
    [| { lo = vals.(0); hi = vals.(0); rows = float_of_int cnts.(0); distinct = 1.0 } |]
  else begin
    let area = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let spread = if i < n - 1 then vals.(i + 1) -. vals.(i) else 1.0 in
      area.(i) <- float_of_int cnts.(i) *. (if spread >= 1e-9 then spread else 1e-9)
    done;
    let diffs = Array.make (n - 1) 0.0 in
    for i = 0 to n - 2 do
      diffs.(i) <- Float.abs (area.(i + 1) -. area.(i))
    done;
    let ranked = Array.init (n - 1) Fun.id in
    Array.sort (fun a b -> Float.compare diffs.(b) diffs.(a)) ranked;
    let nb = max 1 (min buckets n) in
    let split_after = Array.make n false in
    for rank = 0 to min (nb - 1) (n - 1) - 1 do
      split_after.(ranked.(rank)) <- true
    done;
    let out = ref [] in
    let cur_rows = ref 0.0 and cur_d = ref 0.0 in
    let cur_lo = ref vals.(0) in
    for i = 0 to n - 1 do
      let v = vals.(i) in
      if !cur_rows = 0.0 then cur_lo := v;
      cur_rows := !cur_rows +. float_of_int cnts.(i);
      cur_d := !cur_d +. 1.0;
      if split_after.(i) || i = n - 1 then begin
        out := { lo = !cur_lo; hi = v; rows = !cur_rows; distinct = !cur_d } :: !out;
        cur_rows := 0.0;
        cur_d := 0.0
      end
    done;
    Array.of_list (List.rev !out)
  end

(* Serial / end-biased: singleton buckets for the (buckets-1) most frequent
   values, one collective bucket (assumed uniform) for the rest. *)
let build_serial ~buckets (vals, cnts) =
  let n = Array.length vals in
  if n = 0 then [||]
  else begin
    let nb = max 2 buckets in
    let by_freq = Array.init n Fun.id in
    Array.sort (fun a b -> Int.compare cnts.(b) cnts.(a)) by_freq;
    let top_count = min (nb - 1) n in
    let top = Array.make n false in
    for i = 0 to top_count - 1 do
      top.(by_freq.(i)) <- true
    done;
    let singles = ref [] in
    let rest_rows = ref 0.0 and rest_d = ref 0.0 in
    let rest_lo = ref infinity and rest_hi = ref neg_infinity in
    for i = 0 to n - 1 do
      let v = vals.(i) and c = cnts.(i) in
      if top.(i) then
        singles := { lo = v; hi = v; rows = float_of_int c; distinct = 1.0 } :: !singles
      else begin
        rest_rows := !rest_rows +. float_of_int c;
        rest_d := !rest_d +. 1.0;
        if v < !rest_lo then rest_lo := v;
        if v > !rest_hi then rest_hi := v
      end
    done;
    let bkts =
      if !rest_rows > 0.0 then
        { lo = !rest_lo; hi = !rest_hi; rows = !rest_rows; distinct = !rest_d }
        :: !singles
      else !singles
    in
    let arr = Array.of_list bkts in
    Array.sort (fun b1 b2 -> Float.compare b1.lo b2.lo) arr;
    arr
  end

(* V-optimal(F): choose bucket boundaries minimising the total within-
   bucket variance of the frequencies, by the classic O(n^2 b) dynamic
   program.  Large domains are pre-reduced to at most [max_cells] cells so
   the DP stays cheap; this approximation is standard practice. *)
let build_voptimal ~buckets (vals, cnts) =
  let max_cells = 256 in
  let cell_vals, cell_cnts =
    let n = Array.length vals in
    if n <= max_cells then (vals, cnts)
    else begin
      (* coalesce adjacent values into ~max_cells equal-width cells *)
      let lo = vals.(0) and hi = vals.(n - 1) in
      let w = (hi -. lo) /. float_of_int max_cells in
      let counts = Array.make max_cells 0 in
      for k = 0 to n - 1 do
        let i = min (max_cells - 1) (int_of_float ((vals.(k) -. lo) /. max w 1e-9)) in
        counts.(i) <- counts.(i) + cnts.(k)
      done;
      let kept = List.filter (fun i -> counts.(i) > 0) (List.init max_cells Fun.id) in
      ( Array.of_list (List.map (fun i -> lo +. (w *. float_of_int i)) kept),
        Array.of_list (List.map (fun i -> counts.(i)) kept) )
    end
  in
  let n = Array.length cell_vals in
  if n = 0 then [||]
  else begin
    let b = max 1 (min buckets n) in
    (* prefix sums for O(1) variance of any cell range *)
    let pre = Array.make (n + 1) 0.0 and pre2 = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      let c = float_of_int cell_cnts.(i) in
      pre.(i + 1) <- pre.(i) +. c;
      pre2.(i + 1) <- pre2.(i) +. (c *. c)
    done;
    let sse i j =
      (* cells i..j inclusive *)
      let len = float_of_int (j - i + 1) in
      let sum = pre.(j + 1) -. pre.(i) in
      (pre2.(j + 1) -. pre2.(i)) -. (sum *. sum /. len)
    in
    let inf = infinity in
    let dp = Array.make_matrix (n + 1) (b + 1) inf in
    let cut = Array.make_matrix (n + 1) (b + 1) 0 in
    dp.(0).(0) <- 0.0;
    for j = 1 to n do
      for k = 1 to min j b do
        for i = k - 1 to j - 1 do
          let c = dp.(i).(k - 1) +. sse i (j - 1) in
          if c < dp.(j).(k) then begin
            dp.(j).(k) <- c;
            cut.(j).(k) <- i
          end
        done
      done
    done;
    (* walk the cuts back into bucket boundaries over the cells *)
    let rec boundaries j k acc =
      if k = 0 then acc else boundaries cut.(j).(k) (k - 1) (cut.(j).(k) :: acc)
    in
    let starts = boundaries n b [] in
    let ranges =
      let rec pair = function
        | [ s ] -> [ (s, n - 1) ]
        | s :: (s' :: _ as rest) -> (s, s' - 1) :: pair rest
        | [] -> []
      in
      pair starts
    in
    (* convert cell ranges back to buckets over the original values *)
    let bucket_of (i, j) =
      let lo_v = cell_vals.(i) in
      (* collect original frequencies within [lo_v, start of cell j+1) *)
      let hi_bound = if j + 1 < n then cell_vals.(j + 1) else infinity in
      let rows = ref 0.0 and d = ref 0.0 in
      let real_lo = ref infinity and real_hi = ref neg_infinity in
      for k = 0 to Array.length vals - 1 do
        let v = vals.(k) in
        if v >= lo_v && v < hi_bound then begin
          rows := !rows +. float_of_int cnts.(k);
          d := !d +. 1.0;
          if v < !real_lo then real_lo := v;
          if v > !real_hi then real_hi := v
        end
      done;
      if !rows > 0.0 then
        Some { lo = !real_lo; hi = !real_hi; rows = !rows; distinct = !d }
      else None
    in
    Array.of_list (List.filter_map bucket_of ranges)
  end

let build kind ~buckets data =
  let freqs = freq_table data in
  let bkts =
    match kind with
    | Equi_width -> build_equi_width ~buckets freqs
    | Equi_depth -> build_equi_depth ~buckets freqs
    | Maxdiff -> build_maxdiff ~buckets freqs
    | Serial -> build_serial ~buckets freqs
    | V_optimal -> build_voptimal ~buckets freqs
  in
  of_buckets kind bkts

let scale t rows =
  if t.total <= 0.0 then t
  else begin
    let f = rows /. t.total in
    { t with
      bkts = Array.map (fun b -> { b with rows = b.rows *. f }) t.bkts;
      total = rows }
  end

let est_eq t v =
  if t.total <= 0.0 then 0.0
  else begin
    let matching = ref 0.0 in
    Array.iter
      (fun b ->
         if v >= b.lo && v <= b.hi then
           matching := !matching +. (b.rows /. max b.distinct 1.0))
      t.bkts;
    Float.min 1.0 (!matching /. t.total)
  end

(* Fraction of bucket [b] inside the query interval, under the uniform
   (continuous) intra-bucket assumption.  Singleton buckets are all-in or
   all-out. *)
let bucket_overlap b ~lo ~hi =
  let b_lo = b.lo and b_hi = b.hi in
  let q_lo, _lo_incl = match lo with Some (v, i) -> (v, i) | None -> (neg_infinity, true) in
  let q_hi, _hi_incl = match hi with Some (v, i) -> (v, i) | None -> (infinity, true) in
  if q_lo > b_hi || q_hi < b_lo then 0.0
  else if b_lo = b_hi then begin
    (* singleton: in or out; treat open bounds exactly *)
    let in_lo = match lo with
      | Some (v, incl) -> if incl then b_lo >= v else b_lo > v
      | None -> true
    in
    let in_hi = match hi with
      | Some (v, incl) -> if incl then b_hi <= v else b_hi < v
      | None -> true
    in
    if in_lo && in_hi then 1.0 else 0.0
  end else begin
    let eff_lo = Float.max b_lo q_lo and eff_hi = Float.min b_hi q_hi in
    if eff_hi < eff_lo then 0.0
    else if eff_hi = eff_lo then
      (* point (or degenerate) overlap inside a wide bucket: one of the
         bucket's distinct values, not a zero-width sliver *)
      1.0 /. Float.max 1.0 b.distinct
    else
      Float.max
        ((eff_hi -. eff_lo) /. (b_hi -. b_lo))
        (1.0 /. Float.max 1.0 b.distinct)
  end

let est_range t ~lo ~hi =
  if t.total <= 0.0 then 0.0
  else begin
    let rows = ref 0.0 in
    Array.iter
      (fun b -> rows := !rows +. (b.rows *. bucket_overlap b ~lo ~hi))
      t.bkts;
    Float.min 1.0 (!rows /. t.total)
  end

let est_distinct_in_range t ~lo ~hi =
  let d = ref 0.0 in
  Array.iter
    (fun b -> d := !d +. (b.distinct *. bucket_overlap b ~lo ~hi))
    t.bkts;
  !d

(* Bucket-overlap equi-join estimate: for each pair of overlapping buckets,
   the expected number of matches is r1 * r2 / max(d1, d2) scaled by the
   overlap fractions, under per-bucket containment. *)
let est_join_selectivity t1 t2 =
  if t1.total <= 0.0 || t2.total <= 0.0 then 0.0
  else begin
    let matches = ref 0.0 in
    Array.iter
      (fun b1 ->
         Array.iter
           (fun b2 ->
              let lo = Float.max b1.lo b2.lo and hi = Float.min b1.hi b2.hi in
              if lo <= hi then begin
                let f1 = bucket_overlap b1 ~lo:(Some (lo, true)) ~hi:(Some (hi, true)) in
                let f2 = bucket_overlap b2 ~lo:(Some (lo, true)) ~hi:(Some (hi, true)) in
                let r1 = b1.rows *. f1 and r2 = b2.rows *. f2 in
                let d1 = Float.max 1.0 (b1.distinct *. f1) in
                let d2 = Float.max 1.0 (b2.distinct *. f2) in
                matches := !matches +. (r1 *. r2 /. Float.max d1 d2)
              end)
           t2.bkts)
      t1.bkts;
    Float.min 1.0 (!matches /. (t1.total *. t2.total))
  end

let pp fmt t =
  Fmt.pf fmt "@[<v>%s histogram, %.0f rows, %d buckets" (kind_to_string t.kind)
    t.total (Array.length t.bkts);
  Array.iter
    (fun b ->
       Fmt.pf fmt "@,  [%g, %g] rows=%.1f distinct=%.1f" b.lo b.hi b.rows b.distinct)
    t.bkts;
  Fmt.pf fmt "@]"
