(* The collector's observed record, pinned bit for bit.  Collector.collect
   runs over TPC-D tables at sf 0.002 and two joined intermediates under
   specs covering trivial, int, date and string histograms, distinct counts
   on both sides of the exact limit, every histogram kind and two sample
   sizes; every float goes into goldens/collector_obs.txt as its IEEE bits.
   The dump ends with the first 1,000 Rng.int and Rng.float draws of two
   seeds, the stream the reservoirs replace their slots by. *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog
module Datagen = Mqr_tpcd.Datagen
module Histogram = Mqr_stats.Histogram
module Rng = Mqr_stats.Rng
module Collector = Mqr_exec.Collector
module Exec_ctx = Mqr_exec.Exec_ctx
module Join = Mqr_exec.Join

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let value = function
  | Value.Null -> "null"
  | Value.Bool b -> Printf.sprintf "b:%b" b
  | Value.Int i -> Printf.sprintf "i:%d" i
  | Value.Float f -> "f:" ^ bits f
  | Value.String s -> Printf.sprintf "s:%S" s
  | Value.Date d -> Printf.sprintf "d:%d" d

let dump_observed b (o : Collector.observed) =
  let pf fmt = Printf.bprintf b fmt in
  pf "  rows %d bytes %d avg_width %d\n" o.rows o.bytes o.avg_width;
  List.iter
    (fun (c, (lo, hi)) -> pf "  range %s %s %s\n" c (value lo) (value hi))
    o.col_ranges;
  List.iter
    (fun (c, h) ->
       pf "  hist %s %s total %s\n" c
         (Histogram.kind_to_string (Histogram.kind h))
         (bits (Histogram.total_rows h));
       List.iter
         (fun (k : Histogram.bucket) ->
            pf "    %s %s %s %s\n" (bits k.lo) (bits k.hi) (bits k.rows)
              (bits k.distinct))
         (Histogram.buckets h))
    o.histograms;
  List.iter (fun (c, d) -> pf "  distinct %s %s\n" c (bits d)) o.distincts;
  List.iter
    (fun (c, dict) ->
       pf "  dict %s %d:" c (List.length dict);
       List.iter (fun (s, f) -> pf " %S=%s" s (bits f)) dict;
       pf "\n")
    o.dicts

(* One intermediate: its label, rows, schema, and the columns the specs
   below draw from. *)
type input = {
  label : string;
  rows : Tuple.t array;
  schema : Schema.t;
  int_col : string;
  float_col : string;
  date_col : string option;
  string_col : string;
  few_col : string;   (* distinct count under the exact limit *)
  many_col : string;  (* distinct count over it (or the most there is) *)
}

let specs inp =
  let s = Collector.spec in
  let kinds =
    Histogram.[ Equi_width; Equi_depth; Maxdiff; Serial; V_optimal ]
  in
  [ ("trivial", s ());
    ("int-hist", s ~hist_cols:[ inp.int_col ] ());
    ("string-hist", s ~hist_cols:[ inp.string_col ] ());
    ("distinct", s ~distinct_cols:[ inp.few_col; inp.many_col ] ());
    ( "two-hist-64",
      s ~sample_size:64 ~hist_kind:Histogram.Equi_depth ~hist_buckets:8
        ~hist_cols:[ inp.int_col; inp.string_col ]
        ~distinct_cols:[ inp.many_col ] () ) ]
  @ (match inp.date_col with
      | Some d -> [ ("date-hist", s ~hist_cols:[ d ] ()) ]
      | None -> [])
  @ List.map
    (fun k ->
       ( "float-" ^ Histogram.kind_to_string k,
         s ~hist_kind:k ~hist_buckets:16 ~hist_cols:[ inp.float_col ] () ))
    kinds

let inputs () =
  let catalog = Datagen.generate { Datagen.default with Datagen.sf = 0.002 } in
  let table name =
    let heap = (Catalog.find_exn catalog name).Catalog.heap in
    let rows = Array.init (Heap_file.tuple_count heap) (Heap_file.get heap) in
    (rows, Schema.qualify (Heap_file.schema heap) name)
  in
  let lineitem = table "lineitem" and orders = table "orders" in
  let customer = table "customer" and part = table "part" in
  let join ~build ~probe ~keys =
    let r =
      Join.hash_join (Exec_ctx.create ()) ~mem_pages:100_000 ~build ~probe
        ~keys ()
    in
    (r.Join.rows, r.Join.schema)
  in
  let mk label (rows, schema) ~int_col ~float_col ?date_col ~string_col
      ~few_col ~many_col () =
    { label; rows; schema; int_col; float_col; date_col; string_col; few_col;
      many_col }
  in
  [ mk "lineitem" lineitem ~int_col:"lineitem.l_partkey"
      ~float_col:"lineitem.l_quantity" ~date_col:"lineitem.l_shipdate"
      ~string_col:"lineitem.l_shipmode" ~few_col:"lineitem.l_orderkey"
      ~many_col:"lineitem.l_extendedprice" ();
    mk "orders" orders ~int_col:"orders.o_custkey"
      ~float_col:"orders.o_totalprice" ~date_col:"orders.o_orderdate"
      ~string_col:"orders.o_orderpriority" ~few_col:"orders.o_orderstatus"
      ~many_col:"orders.o_orderkey" ();
    mk "customer" customer ~int_col:"customer.c_nationkey"
      ~float_col:"customer.c_acctbal" ~string_col:"customer.c_mktsegment"
      ~few_col:"customer.c_nationkey" ~many_col:"customer.c_name" ();
    mk "part" part ~int_col:"part.p_size" ~float_col:"part.p_retailprice"
      ~string_col:"part.p_type" ~few_col:"part.p_brand"
      ~many_col:"part.p_name" ();
    mk "orders*customer"
      (join ~build:customer ~probe:orders
         ~keys:[ ("orders.o_custkey", "customer.c_custkey") ])
      ~int_col:"customer.c_nationkey" ~float_col:"orders.o_totalprice"
      ~date_col:"orders.o_orderdate" ~string_col:"customer.c_mktsegment"
      ~few_col:"orders.o_custkey" ~many_col:"orders.o_orderkey" ();
    mk "lineitem*orders"
      (join ~build:orders ~probe:lineitem
         ~keys:[ ("lineitem.l_orderkey", "orders.o_orderkey") ])
      ~int_col:"lineitem.l_suppkey" ~float_col:"lineitem.l_extendedprice"
      ~date_col:"orders.o_orderdate" ~string_col:"orders.o_orderpriority"
      ~few_col:"orders.o_custkey" ~many_col:"lineitem.l_extendedprice" () ]

let rng_draws b =
  List.iter
    (fun seed ->
       let r = Rng.create seed in
       Printf.bprintf b "rng %d int\n" seed;
       for i = 1 to 1000 do
         Printf.bprintf b "%d%c" (Rng.int r i) (if i mod 20 = 0 then '\n' else ' ')
       done;
       let r = Rng.create seed in
       Printf.bprintf b "rng %d float\n" seed;
       for i = 1 to 1000 do
         Printf.bprintf b "%s%c" (bits (Rng.float r))
           (if i mod 8 = 0 then '\n' else ' ')
       done)
    [ 0x5eed; 7 ]

let dump () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun inp ->
       List.iter
         (fun (name, spec) ->
            Printf.bprintf b "%s / %s\n" inp.label name;
            let ctx = Exec_ctx.create () in
            let obs = Collector.collect ctx inp.schema spec inp.rows in
            Printf.bprintf b "  charged %s\n" (bits (Exec_ctx.elapsed_ms ctx));
            dump_observed b obs)
         (specs inp))
    (inputs ());
  rng_draws b;
  Buffer.contents b

let test_golden () = Golden.check "collector_obs" (dump ())

(* Heap_sort.sort_floats leaves equal keys (0.0 and -0.0, NaNs with
   different payloads) in the order Array.sort Float.compare does. *)
let prop_heap_sort_matches_array_sort =
  let keys =
    [| 0.0; -0.0; 1.0; -3.5; 2.0; nan; Int64.float_of_bits 0x7ff0000000000123L |]
  in
  QCheck.Test.make ~name:"heap sort = Array.sort, ties included" ~count:1000
    QCheck.(list_of_size (Gen.int_range 0 300) (int_range 0 (Array.length keys - 1)))
    (fun picks ->
       let want = Array.of_list (List.map (fun i -> keys.(i)) picks) in
       let got = Array.copy want in
       Array.sort Float.compare want;
       Mqr_stats.Heap_sort.sort_floats got;
       Array.map Int64.bits_of_float got = Array.map Int64.bits_of_float want)

(* The fused loop's bytes and min/max agree with Tuple.byte_size and a
   Value.min_value/max_value fold, down to which of two equal values
   (0 and 0.0, 0.0 and -0.0) is kept. *)
let prop_fused_counters =
  let nums =
    [| Value.Null; Value.Int 0; Value.Int 1; Value.Int (-2); Value.Float 0.0;
       Value.Float (-0.0); Value.Float 1.0; Value.Float (-2.0) |]
  and strs = [| Value.Null; Value.String ""; Value.String "a"; Value.String "b" |] in
  let schema =
    Schema.make [ Schema.col "n" Value.TFloat; Schema.col "s" Value.TString;
                  Schema.col "d" Value.TDate ]
  in
  QCheck.Test.make ~name:"fused bytes and min/max = per-value fold" ~count:500
    QCheck.(list_of_size (Gen.int_range 0 40)
              (triple (int_range 0 7) (int_range 0 3) (int_range (-1) 3)))
    (fun picks ->
       let rows =
         Array.of_list
           (List.map
              (fun (a, b, c) ->
                 [| nums.(a); strs.(b); (if c < 0 then Value.Null else Value.Date c) |])
              picks)
       in
       let obs =
         Collector.collect (Exec_ctx.create ()) schema (Collector.spec ()) rows
       in
       let want =
         List.filter_map
           (fun (i, name) ->
              let lo, hi =
                Array.fold_left
                  (fun (lo, hi) t ->
                     if Value.is_null t.(i) then (lo, hi)
                     else (Value.min_value lo t.(i), Value.max_value hi t.(i)))
                  (Value.Null, Value.Null) rows
              in
              if Value.is_null lo then None else Some (name, (value lo, value hi)))
           [ (0, "n"); (1, "s"); (2, "d") ]
       in
       obs.Collector.bytes = Mqr_exec.Rows_ops.bytes_of_rows rows
       && List.map (fun (c, (lo, hi)) -> (c, (value lo, value hi)))
            obs.Collector.col_ranges
          = want)

let suite =
  [ Alcotest.test_case "observed record golden" `Quick test_golden;
    QCheck_alcotest.to_alcotest prop_heap_sort_matches_array_sort;
    QCheck_alcotest.to_alcotest prop_fused_counters ]
