open Mqr_storage
module Histogram = Mqr_stats.Histogram
module Reservoir = Mqr_stats.Reservoir
module Distinct = Mqr_stats.Distinct
module Column_stats = Mqr_catalog.Column_stats

let base_tuple_ms = 0.0003
let stat_tuple_ms = 0.0012
let default_sample_size = Heap_file.page_size_bytes / 8

type spec = {
  hist_cols : string list;
  distinct_cols : string list;
  hist_kind : Histogram.kind;
  hist_buckets : int;
  sample_size : int;
}

let spec ?(hist_kind = Histogram.Maxdiff) ?(hist_buckets = 32)
    ?(sample_size = default_sample_size) ?(hist_cols = [])
    ?(distinct_cols = []) () =
  { hist_cols; distinct_cols; hist_kind; hist_buckets; sample_size }

let spec_is_trivial s = s.hist_cols = [] && s.distinct_cols = []

let spec_columns s = s.hist_cols @ s.distinct_cols

type observed = {
  rows : int;
  bytes : int;
  avg_width : int;
  col_ranges : (string * (Value.t * Value.t)) list;
  histograms : (string * Histogram.t) list;
  distincts : (string * float) list;
  dicts : (string * (string * float) list) list;
}

let estimated_cost_ms s ~rows =
  let stats = List.length s.hist_cols + List.length s.distinct_cols in
  rows *. (base_tuple_ms +. (float_of_int stats *. stat_tuple_ms))

(* [lt a b]: Value.compare a b < 0, without the generic dispatch when
   both sides have the same representation. *)
let[@inline] lt a b =
  match a, b with
  | Value.Int x, Value.Int y | Value.Date x, Value.Date y -> x < y
  | Value.Float x, Value.Float y -> Float.compare x y < 0
  | Value.String x, Value.String y -> String.compare x y < 0
  | _ -> Value.compare a b < 0

(* Value.byte_size, with the common cases inlined into the row loop (a
   call into another library is never inlined under dune's default
   profile).  The collector tests hold it to Tuple.byte_size. *)
let[@inline] byte_size = function
  | Value.Int _ | Value.Float _ -> 8
  | Value.Date _ -> 4
  | Value.String s -> 4 + String.length s
  | v -> Value.byte_size v

(* The string dictionary of a sample (sorted, rank as its float code) and
   the sample mapped through it, or [None] when the sample has no
   strings. *)
let encode_strings sample =
  let module SS = Set.Make (String) in
  let set =
    Array.fold_left
      (fun acc v -> match v with Value.String s -> SS.add s acc | _ -> acc)
      SS.empty sample
  in
  if SS.is_empty set then None
  else begin
    let dict = List.mapi (fun i s -> (s, float_of_int i)) (SS.elements set) in
    let code = Hashtbl.create (2 * List.length dict) in
    List.iter (fun (s, f) -> Hashtbl.replace code s f) dict;
    let to_float = function
      | Value.String s -> Hashtbl.find code s
      | v -> Value.to_float v
    in
    Some (dict, Array.map to_float sample)
  end

let collect ctx schema s rows =
  let clock = ctx.Exec_ctx.clock in
  let n = Array.length rows in
  let arity = Schema.arity schema in
  let qualified i =
    let c = Schema.column schema i in
    if c.Schema.qualifier = "" then c.Schema.name
    else c.Schema.qualifier ^ "." ^ c.Schema.name
  in
  (* Always-on running counters. *)
  let bytes = ref 0 in
  let mins = Array.make arity Value.Null and maxs = Array.make arity Value.Null in
  (* Requested statistics, as flat arrays the row loop indexes. *)
  let hist_idx = Array.of_list (List.map (Schema.index_of schema) s.hist_cols) in
  let hist_res =
    Array.map (fun _ -> Reservoir.create ~capacity:s.sample_size ()) hist_idx
  in
  let dist_idx = Array.of_list (List.map (Schema.index_of schema) s.distinct_cols) in
  let dist = Array.map (fun _ -> Distinct.create ()) dist_idx in
  (* One fused pass: tuple bytes, min/max (the first non-null initialises
     both; ties keep the incumbent), then the reservoirs and the distinct
     counters of the requested columns. *)
  for r = 0 to n - 1 do
    let t = rows.(r) in
    bytes := !bytes + Tuple.header_bytes;
    for i = 0 to arity - 1 do
      let v = t.(i) in
      bytes := !bytes + byte_size v;
      match v, mins.(i) with
      | Value.Null, _ -> ()
      | _, Value.Null ->
        mins.(i) <- v;
        maxs.(i) <- v
      | _, lo ->
        if lt v lo then mins.(i) <- v
        else if lt maxs.(i) v then maxs.(i) <- v
    done;
    for k = 0 to Array.length hist_idx - 1 do
      match t.(hist_idx.(k)) with
      | Value.Null -> ()
      | v -> Reservoir.add hist_res.(k) v
    done;
    for k = 0 to Array.length dist_idx - 1 do
      match t.(dist_idx.(k)) with
      | Value.Null -> ()
      | v -> Distinct.add dist.(k) v
    done
  done;
  Sim_clock.charge_cpu_ms clock (estimated_cost_ms s ~rows:(float_of_int n));
  let dicts = ref [] in
  let histograms =
    List.mapi
      (fun k c ->
         let res = hist_res.(k) in
         let sample = Reservoir.sample res in
         let data =
           match encode_strings sample with
           | Some (dict, data) ->
             dicts := (c, dict) :: !dicts;
             data
           | None -> Array.map Value.to_float sample
         in
         let h = Histogram.build s.hist_kind ~buckets:s.hist_buckets data in
         (c, Histogram.scale h (float_of_int (Reservoir.seen res))))
      s.hist_cols
  in
  let distincts =
    List.mapi (fun k c -> (c, Distinct.estimate dist.(k))) s.distinct_cols
  in
  let col_ranges =
    List.filter_map
      (fun i ->
         if Value.is_null mins.(i) then None
         else Some (qualified i, (mins.(i), maxs.(i))))
      (List.init arity (fun i -> i))
  in
  { rows = n;
    bytes = !bytes;
    avg_width = (if n = 0 then 0 else !bytes / n);
    col_ranges;
    histograms;
    distincts;
    dicts = !dicts }

let column_stats_of_observed obs ~column =
  let range = List.assoc_opt column obs.col_ranges in
  let histogram = List.assoc_opt column obs.histograms in
  let distinct =
    match List.assoc_opt column obs.distincts with
    | Some d -> Some d
    | None -> Option.map Histogram.distinct histogram
  in
  { Column_stats.min_v = Option.map fst range;
    max_v = Option.map snd range;
    distinct;
    histogram;
    stale = false;
    dict = List.assoc_opt column obs.dicts;
    is_key = false }

let pp_observed fmt o =
  Fmt.pf fmt "@[<v>observed: %d rows, %d bytes (avg width %d)" o.rows o.bytes
    o.avg_width;
  List.iter
    (fun (c, h) ->
       Fmt.pf fmt "@,  histogram %s: %.0f distinct" c (Histogram.distinct h))
    o.histograms;
  List.iter (fun (c, d) -> Fmt.pf fmt "@,  distinct %s: %.1f" c d) o.distincts;
  Fmt.pf fmt "@]"
