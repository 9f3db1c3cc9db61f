open Mqr_storage
module Expr = Mqr_expr.Expr
module Selectivity = Mqr_expr.Selectivity
module Query = Mqr_sql.Query
module Aggregate = Mqr_exec.Aggregate
module Collector = Mqr_exec.Collector

type options = {
  enable_index_join : bool;
  enable_merge_join : bool;
  enable_bushy : bool;
  enable_runtime_filters : bool;
  planning_mem_pages : int;
  max_dop : int;
}

let default_options =
  { enable_index_join = true;
    enable_merge_join = true;
    enable_bushy = true;
    enable_runtime_filters = false;
    planning_mem_pages = 128;
    max_dop = 1 }

type result = {
  plan : Plan.t;
  plans_enumerated : int;
}

exception Planning_error of string

(* ------------------------------------------------------------------ *)
(* Shared context for one optimization run.                            *)

type ctx = {
  model : Sim_clock.model;
  env : Stats_env.t;
  sel_env : Selectivity.env;
  planning_mem : int;
  max_dop : int;
  mutable next_id : int;
  mutable enumerated : int;
  (* Statistics-derived values memoised for one call: the statistics
     cannot change while a call runs, and every call makes a fresh
     context, so a later override never reads a stale value. *)
  join_sels : (string * string, float) Hashtbl.t;
      (* equi-join selectivity per ordered column pair *)
  distincts : (string, float option) Hashtbl.t;
      (* distinct values per column *)
}

let make_ctx ?(planning_mem = default_options.planning_mem_pages)
    ?(max_dop = 1) ~model ~env () =
  { model;
    env;
    sel_env = Stats_env.selectivity_env env;
    planning_mem;
    max_dop = max 1 max_dop;
    next_id = 0;
    enumerated = 0;
    join_sels = Hashtbl.create 16;
    distincts = Hashtbl.create 16 }

(* Memory assumed when costing: the grant when one exists, otherwise the
   planning assumption capped by the operator's own maximum. *)
let effective_mem ctx ~mem ~max_mem =
  if mem > 0 then mem else min max_mem (max 2 ctx.planning_mem)

let fresh_id ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  id

let sel ctx e = Selectivity.selectivity ctx.sel_env e

let sel_opt ctx = function None -> 1.0 | Some e -> sel ctx e

let width_of schema = float_of_int (Schema.avg_tuple_width schema)

(* ------------------------------------------------------------------ *)
(* Node constructors: estimation + costing in one place so [recost]    *)
(* and the DP share the exact same formulas.                           *)

(* A node's estimate record: output rows floored at 0.05 and total cost =
   own work plus each child's total, added in child order. *)
let node_est ~rows ~width ~op_ms (children : Plan.est list) =
  { Plan.rows = Float.max 0.05 rows;
    width;
    op_ms;
    total_ms =
      List.fold_left (fun acc (c : Plan.est) -> acc +. c.Plan.total_ms) op_ms
        children }

let mk_node ctx ?(dop = 1) node schema ~rows ~op_ms ~children ~min_mem
    ~max_mem ~mem =
  let est =
    node_est ~rows ~width:(width_of schema) ~op_ms
      (List.map (fun (c : Plan.t) -> c.Plan.est) children)
  in
  { Plan.id = fresh_id ctx; node; schema; est; min_mem; max_mem; mem; dop }

(* What one operator's estimate function returns: everything about the
   node except its children and its shape.  [rows] is the raw output
   estimate, before [node_est] floors it. *)
type cost = {
  rows : float;
  op_ms : float;
  dop : int;
  min_mem : int;
  max_mem : int;
  mem : int;
}

let mk_costed ctx node schema ~children (c : cost) =
  mk_node ctx ~dop:c.dop node schema ~rows:c.rows ~op_ms:c.op_ms ~children
    ~min_mem:c.min_mem ~max_mem:c.max_mem ~mem:c.mem

(* ------------------------------------------------------------------ *)
(* Degree-of-parallelism choice.  Candidate degrees are powers of two up
   to [max_dop] (the degrees the bench sweeps); [per_worker d] prices one
   even partition's share and [exchange_pages] what must cross the
   interconnect first.  Degree 1 is exactly the serial cost — no exchange,
   no startup — so with [max_dop = 1] every plan, cost and trace is
   byte-identical to a build without parallelism.  Ties keep the smaller
   degree. *)

let choose_dop ctx ~exchange_pages ~per_worker =
  let rec go d (best_d, best_ms) =
    if d > ctx.max_dop then (best_d, best_ms)
    else begin
      let ms =
        Cost_model.parallel_ms ~dop:d ~exchange_pages ~per_worker:(per_worker d)
      in
      go (d * 2) (if ms < best_ms then (d, ms) else (best_d, best_ms))
    end
  in
  go 2 (1, per_worker 1)

let scan_out_rows ctx ~alias ~filter =
  let r = Stats_env.rel ctx.env ~alias in
  match filter, Stats_env.local_selectivity ctx.env ~alias with
  | Some _, Some sel -> r.Stats_env.rows *. sel
  | _ -> r.Stats_env.rows *. sel_opt ctx filter

let mk_seq_scan ctx ~table ~alias ~filter ~schema =
  let r = Stats_env.rel ctx.env ~alias in
  let rows = scan_out_rows ctx ~alias ~filter in
  (* the scan stripes across workers (each reads its own rid range, no
     exchange); the predicate is evaluated on the parent and stays serial *)
  let dop, scan_ms =
    choose_dop ctx ~exchange_pages:0.0 ~per_worker:(fun d ->
        let d = float_of_int d in
        Cost_model.seq_scan_ms ctx.model ~pages:(r.Stats_env.pages /. d)
          ~rows:(r.Stats_env.rows /. d))
  in
  let op_ms =
    scan_ms
    +. (match filter with
        | None -> 0.0
        | Some _ -> r.Stats_env.rows *. ctx.model.Sim_clock.cpu_tuple_ms)
  in
  mk_node ctx ~dop (Plan.Seq_scan { table; alias; filter }) schema ~rows ~op_ms
    ~children:[] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_index_scan ctx ~table ~alias ~index_col ~lo ~hi ~filter ~schema
    ~index_sel =
  let r = Stats_env.rel ctx.env ~alias in
  let rows = scan_out_rows ctx ~alias ~filter in
  let match_rows = Float.max 1.0 (r.Stats_env.rows *. index_sel) in
  let op_ms =
    Cost_model.index_scan_ms ctx.model ~match_rows
      ~table_pages:r.Stats_env.pages
    +. (match filter with
        | None -> 0.0
        | Some _ -> match_rows *. ctx.model.Sim_clock.cpu_tuple_ms)
  in
  mk_node ctx (Plan.Index_scan { table; alias; index_col; lo; hi; filter })
    schema ~rows ~op_ms ~children:[] ~min_mem:0 ~max_mem:0 ~mem:0

let memoised tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.add tbl key v;
    v

let distinct ctx col =
  memoised ctx.distincts col (fun () ->
      Selectivity.distinct_of_column ctx.sel_env col)

let equijoin_sel ctx ~left ~right =
  memoised ctx.join_sels (left, right) (fun () ->
      Selectivity.equijoin_selectivity ctx.sel_env ~left ~right)

let join_sel ctx ~keys ~extra =
  let key_sel =
    List.fold_left
      (fun acc (p, b) -> acc *. equijoin_sel ctx ~left:p ~right:b)
      1.0 keys
  in
  key_sel *. sel_opt ctx extra

(* ------------------------------------------------------------------ *)
(* Runtime-filter annotation (sideways information passing).           *)

(* Estimated pass fraction of a filter built from [build_col] applied to
   [probe_col]: by containment, the build side covers at most
   min(distinct(build_col), build_rows) of the probe column's distinct
   values.  Unknown distincts yield 1.0: the filter still runs (its
   observed selectivity is the point) but earns no cost credit.  A
   build-side estimate of under one row is a statistics failure rather
   than a one-distinct-value build; it also earns no credit — crediting
   min(distinct, 1)/distinct(probe) would hand the deepest discount to
   exactly the joins whose estimates are garbage, letting the optimizer
   flip a mis-estimated subtree onto the build side on the strength of a
   filter it cannot predict (the plan verifier flags the degenerate
   estimate as RF-DEGEN). *)
let rf_est_sel ctx ~build_rows ~build_col ~probe_col =
  if build_rows < 1.0 then 1.0
  else
  match
    (distinct ctx build_col, distinct ctx probe_col)
  with
  | Some db, Some dp when dp >= 1.0 ->
    Float.min 1.0 (Float.min db build_rows /. dp)
  | _ -> 1.0

(* Leaves of the probe subtree whose schema owns the filtered column —
   the sites where the dispatcher will apply the filter. *)
let schema_owns schema col =
  match Schema.index_of schema col with
  | (_ : int) -> true
  | exception Not_found -> false
  | exception Schema.Ambiguous _ -> false

let rf_sites probe ~col =
  let owns (n : Plan.t) = schema_owns n.Plan.schema col in
  List.rev
    (Plan.fold
       (fun acc (n : Plan.t) ->
          match n.Plan.node with
          | (Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ })
            when owns n -> alias :: acc
          | Plan.Materialized { name; _ } when owns n -> name :: acc
          | _ -> acc)
       [] probe)

(* [sites col] lists the probe-side scans owning [col]. *)
let rf_annotations ctx ~with_rf ~build_rows ~sites ~keys =
  if not with_rf then []
  else
    List.filter_map
      (fun (probe_col, build_col) ->
         match sites probe_col with
         | [] -> None
         | sites ->
           Some
             { Plan.rf_build_col = build_col;
               rf_probe_col = probe_col;
               rf_sel = rf_est_sel ctx ~build_rows ~build_col ~probe_col;
               rf_sites = sites })
      keys

let rf_combined_sel rf =
  List.fold_left (fun acc f -> acc *. f.Plan.rf_sel) 1.0 rf

(* Selectivity credited when *costing* the join: only half the predicted
   reduction.  The estimate rides on catalog distinct counts — often stale
   exactly when filters matter — and an over-credited filter would let the
   optimizer chase join orders whose benefit never materializes.  The full
   reduction is still realized at run time; this only damps plan choice. *)
let rf_credit_sel rf = 0.5 +. (0.5 *. rf_combined_sel rf)

let rf_overhead_ms ~build_rows ~probe_rows rf =
  List.fold_left
    (fun acc (_ : Plan.rf) ->
       acc +. Cost_model.runtime_filter_ms ~build_rows ~probe_rows)
    0.0 rf

(* Estimate functions: one per join operator, over the children's
   estimate records only.  The [mk_*] constructors (used by [recost] and
   the final plan) and the join memo both call them, so a plan costs the
   same whichever path builds it. *)

let est_hash_join ctx ~build:(b : Plan.est) ~probe:(p : Plan.est) ~keys ~jsel
    ~rf ~mem =
  let rows = b.Plan.rows *. p.Plan.rows *. jsel in
  (* the join's own work shrinks to the filtered probe cardinality; the
     output estimate does not change (the filter only removes tuples that
     could never join) *)
  let probe_rows_eff = p.Plan.rows *. rf_credit_sel rf in
  let build_pages = Cost_model.pages ~rows:b.Plan.rows ~width:b.Plan.width in
  let probe_pages =
    Cost_model.pages ~rows:probe_rows_eff ~width:p.Plan.width
  in
  let min_mem, max_mem = Cost_model.hash_join_mem ~build_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  (* both inputs are hash-exchanged on the key, then each worker joins its
     co-partition pair with an even share of the memory grant; runtime
     filters are built and probed outside the partitioned join and stay
     serial *)
  let dop, join_ms =
    if keys = [] then (1, Cost_model.hash_join_ms ctx.model
                         ~build_rows:b.Plan.rows ~build_pages
                         ~probe_rows:probe_rows_eff ~probe_pages
                         ~out_rows:rows ~mem_pages:mem)
    else
      choose_dop ctx ~exchange_pages:(build_pages +. probe_pages)
        ~per_worker:(fun d ->
            let fd = float_of_int d in
            Cost_model.hash_join_ms ctx.model
              ~build_rows:(b.Plan.rows /. fd)
              ~build_pages:(build_pages /. fd)
              ~probe_rows:(probe_rows_eff /. fd)
              ~probe_pages:(probe_pages /. fd)
              ~out_rows:(rows /. fd)
              ~mem_pages:(max 2 (mem / d)))
  in
  let op_ms =
    join_ms
    +. rf_overhead_ms ~build_rows:b.Plan.rows ~probe_rows:p.Plan.rows rf
  in
  { rows; op_ms; dop; min_mem; max_mem; mem }

let est_index_nl_join ctx ~outer:(o : Plan.est) ~inner_rows ~jsel ~filtered
    ~filter_sel ~extra_sel =
  let fetched = o.Plan.rows *. inner_rows *. jsel in
  let rows = fetched *. filter_sel *. extra_sel in
  let op_ms =
    Cost_model.index_nl_join_ms ctx.model ~outer_rows:o.Plan.rows
      ~out_rows:(Float.max 1.0 fetched)
    +. (if filtered then fetched *. ctx.model.Sim_clock.cpu_tuple_ms else 0.0)
  in
  { rows; op_ms; dop = 1; min_mem = 0; max_mem = 0; mem = 0 }

let est_block_nl_join ctx ~outer:(o : Plan.est) ~inner:(i : Plan.est)
    ~pred_sel ~mem =
  let rows = o.Plan.rows *. i.Plan.rows *. pred_sel in
  let outer_pages = Cost_model.pages ~rows:o.Plan.rows ~width:o.Plan.width in
  let inner_pages = Cost_model.pages ~rows:i.Plan.rows ~width:i.Plan.width in
  let min_mem, max_mem = Cost_model.block_nl_join_mem ~outer_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let op_ms =
    Cost_model.block_nl_join_ms ctx.model ~outer_rows:o.Plan.rows ~outer_pages
      ~inner_rows:i.Plan.rows ~inner_pages ~out_rows:rows ~mem_pages:mem
  in
  { rows; op_ms; dop = 1; min_mem; max_mem; mem }

let est_merge_join ctx ~left:(le : Plan.est) ~right:(re : Plan.est) ~jsel
    ~left_sorted ~right_sorted ~rf ~mem =
  let rows = le.Plan.rows *. re.Plan.rows *. jsel in
  let right_rows_eff = re.Plan.rows *. rf_credit_sel rf in
  let left_pages = Cost_model.pages ~rows:le.Plan.rows ~width:le.Plan.width in
  let right_pages =
    Cost_model.pages ~rows:right_rows_eff ~width:re.Plan.width
  in
  let min_mem, max_mem = Cost_model.merge_join_mem ~left_pages ~right_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  let op_ms =
    Cost_model.merge_join_ms ctx.model ~left_rows:le.Plan.rows ~left_pages
      ~right_rows:right_rows_eff ~right_pages ~out_rows:rows ~mem_pages:mem
      ~left_sorted ~right_sorted
    +. rf_overhead_ms ~build_rows:le.Plan.rows ~probe_rows:re.Plan.rows rf
  in
  { rows; op_ms; dop = 1; min_mem; max_mem; mem }

let mk_hash_join ctx ~build ~probe ~keys ~extra ~mem ~with_rf =
  let schema = Schema.concat probe.Plan.schema build.Plan.schema in
  let rf =
    rf_annotations ctx ~with_rf ~build_rows:build.Plan.est.Plan.rows
      ~sites:(fun col -> rf_sites probe ~col) ~keys
  in
  est_hash_join ctx ~build:build.Plan.est ~probe:probe.Plan.est ~keys
    ~jsel:(join_sel ctx ~keys ~extra) ~rf ~mem
  |> mk_costed ctx (Plan.Hash_join { build; probe; keys; extra; rf }) schema
       ~children:[ build; probe ]

let mk_index_nl_join ctx ~outer ~table ~alias ~outer_col ~inner_col
    ~inner_filter ~extra ~inner_schema =
  let r = Stats_env.rel ctx.env ~alias in
  let schema = Schema.concat outer.Plan.schema inner_schema in
  est_index_nl_join ctx ~outer:outer.Plan.est ~inner_rows:r.Stats_env.rows
    ~jsel:(equijoin_sel ctx ~left:outer_col ~right:inner_col)
    ~filtered:(inner_filter <> None) ~filter_sel:(sel_opt ctx inner_filter)
    ~extra_sel:(sel_opt ctx extra)
  |> mk_costed ctx
       (Plan.Index_nl_join
          { outer; table; alias; outer_col; inner_col; inner_filter; extra })
       schema ~children:[ outer ]

let mk_block_nl_join ctx ~outer ~inner ~pred ~mem =
  let schema = Schema.concat outer.Plan.schema inner.Plan.schema in
  est_block_nl_join ctx ~outer:outer.Plan.est ~inner:inner.Plan.est
    ~pred_sel:(sel_opt ctx pred) ~mem
  |> mk_costed ctx (Plan.Block_nl_join { outer; inner; pred }) schema
       ~children:[ outer; inner ]

(* A side counts as pre-sorted only when the join has a single key pair and
   the side delivers that key in ascending order; an input ordered by the
   leading column alone is NOT sorted for a multi-key merge. *)
let side_sorted plan key = List.mem key (Plan.orders_of plan)

let mk_merge_join ctx ~left ~right ~keys ~extra ~mem ~with_rf =
  let schema = Schema.concat left.Plan.schema right.Plan.schema in
  let left_sorted =
    match keys with [ (l, _) ] -> side_sorted left l | _ -> false
  in
  let right_sorted =
    match keys with [ (_, r) ] -> side_sorted right r | _ -> false
  in
  (* the left side plays the hash join's build role: its key set filters
     the right side before the right-side sort *)
  let rf =
    rf_annotations ctx ~with_rf ~build_rows:left.Plan.est.Plan.rows
      ~sites:(fun col -> rf_sites right ~col)
      ~keys:(List.map (fun (l, r) -> (r, l)) keys)
  in
  est_merge_join ctx ~left:left.Plan.est ~right:right.Plan.est
    ~jsel:(join_sel ctx ~keys ~extra) ~left_sorted ~right_sorted ~rf ~mem
  |> mk_costed ctx
       (Plan.Merge_join
          { left; right; keys; extra; left_sorted; right_sorted; rf })
       schema ~children:[ left; right ]

let group_count ctx ~input_rows ~group_by =
  match group_by with
  | [] -> 1.0
  | cols ->
    let product =
      List.fold_left
        (fun acc c ->
           match distinct ctx c with
           | Some d -> acc *. Float.max 1.0 d
           | None -> acc *. 100.0)
        1.0 cols
    in
    Float.max 1.0 (Float.min input_rows product)

let mk_aggregate ctx ~input ~group_by ~aggs ~mem =
  let schema =
    Aggregate.output_schema input.Plan.schema ~group_by ~aggs
  in
  let in_est = input.Plan.est in
  let rows = group_count ctx ~input_rows:in_est.Plan.rows ~group_by in
  (* streaming aggregation when the single grouping column arrives in
     order: equal keys adjacent, one pass, no working memory *)
  let pre_sorted =
    match group_by with
    | [ g ] -> List.mem g (Plan.orders_of input)
    | _ -> false
  in
  let group_pages = Cost_model.pages ~rows ~width:(width_of schema) in
  let in_pages =
    Cost_model.pages ~rows:in_est.Plan.rows ~width:in_est.Plan.width
  in
  let min_mem, max_mem =
    if pre_sorted then (0, 0) else Cost_model.aggregate_mem ~group_pages
  in
  let mem = if pre_sorted then 0 else effective_mem ctx ~mem ~max_mem in
  (* partitioned on the first grouping column (every group lands wholly on
     one worker); streaming and ungrouped aggregation stay serial *)
  let dop, op_ms =
    if pre_sorted then
      (1, Cost_model.aggregate_sorted_ms ctx.model ~in_rows:in_est.Plan.rows
            ~groups:rows)
    else if group_by = [] then
      (1, Cost_model.aggregate_ms ctx.model ~in_rows:in_est.Plan.rows
            ~in_pages ~groups:rows ~group_pages ~mem_pages:mem)
    else
      choose_dop ctx ~exchange_pages:in_pages ~per_worker:(fun d ->
          let fd = float_of_int d in
          Cost_model.aggregate_ms ctx.model
            ~in_rows:(in_est.Plan.rows /. fd)
            ~in_pages:(in_pages /. fd)
            ~groups:(rows /. fd)
            ~group_pages:(group_pages /. fd)
            ~mem_pages:(max 1 (mem / d)))
  in
  mk_node ctx ~dop (Plan.Aggregate { input; group_by; aggs; pre_sorted })
    schema ~rows ~op_ms ~children:[ input ] ~min_mem ~max_mem ~mem

let mk_sort ctx ~input ~keys ~mem =
  let in_est = input.Plan.est in
  let data_pages =
    Cost_model.pages ~rows:in_est.Plan.rows ~width:in_est.Plan.width
  in
  let min_mem, max_mem = Cost_model.sort_mem ~data_pages in
  let mem = effective_mem ctx ~mem ~max_mem in
  (* round-robin exchange, per-worker external sort, then a serial k-way
     merge on the parent (one comparison unit per output row) *)
  let dop, op_ms =
    choose_dop ctx ~exchange_pages:data_pages ~per_worker:(fun d ->
        let fd = float_of_int d in
        Cost_model.sort_ms ctx.model ~rows:(in_est.Plan.rows /. fd)
          ~data_pages:(data_pages /. fd) ~mem_pages:(max 2 (mem / d))
        +. (if d = 1 then 0.0
            else in_est.Plan.rows *. ctx.model.Sim_clock.sort_tuple_ms))
  in
  mk_node ctx ~dop (Plan.Sort { input; keys }) input.Plan.schema
    ~rows:in_est.Plan.rows ~op_ms ~children:[ input ] ~min_mem ~max_mem ~mem

let mk_filter ctx ~input ~pred =
  let in_est = input.Plan.est in
  let rows = in_est.Plan.rows *. sel ctx pred in
  let op_ms = in_est.Plan.rows *. ctx.model.Sim_clock.cpu_tuple_ms in
  mk_node ctx (Plan.Filter { input; pred }) input.Plan.schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_project ctx ~input ~cols =
  let idxs = List.map (Schema.index_of input.Plan.schema) cols in
  let schema = Schema.project input.Plan.schema idxs in
  let rows = input.Plan.est.Plan.rows in
  let op_ms = Cost_model.project_ms ctx.model ~rows in
  mk_node ctx (Plan.Project { input; cols }) schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_limit ctx ~input ~n =
  let rows = Float.min (float_of_int n) input.Plan.est.Plan.rows in
  let op_ms = Cost_model.limit_ms ctx.model ~rows in
  mk_node ctx (Plan.Limit { input; n }) input.Plan.schema ~rows ~op_ms
    ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

let mk_collect ctx ~input ~spec ~cid =
  let rows = input.Plan.est.Plan.rows in
  let op_ms = Collector.estimated_cost_ms spec ~rows in
  mk_node ctx (Plan.Collect { input; spec; cid }) input.Plan.schema ~rows
    ~op_ms ~children:[ input ] ~min_mem:0 ~max_mem:0 ~mem:0

(* ------------------------------------------------------------------ *)
(* Conjunct analysis.                                                  *)

type conj_info = {
  expr : Expr.t;
  owners : string list;  (* aliases of relations owning referenced columns *)
}

let alias_owning env col =
  match
    List.find_opt (fun r -> Stats_env.owns r col) (Stats_env.relations env)
  with
  | Some r -> r.Stats_env.alias
  | None -> raise (Planning_error ("unknown column " ^ col))

let conj_info env e =
  let owners =
    List.sort_uniq String.compare
      (List.map (alias_owning env) (Expr.columns e))
  in
  { expr = e; owners }

(* ------------------------------------------------------------------ *)
(* Access paths.                                                       *)

(* Index-usable bounds for [col] within local conjuncts: combined eq/range
   constants. *)
let index_bounds conjs col =
  let lo = ref None and hi = ref None in
  let tighten_lo v incl =
    match !lo with
    | None -> lo := Some (v, incl)
    | Some (v0, _) when Value.compare v v0 > 0 -> lo := Some (v, incl)
    | Some _ -> ()
  in
  let tighten_hi v incl =
    match !hi with
    | None -> hi := Some (v, incl)
    | Some (v0, _) when Value.compare v v0 < 0 -> hi := Some (v, incl)
    | Some _ -> ()
  in
  let used = ref [] in
  List.iter
    (fun conj ->
       match Expr.shape_of conj with
       | Expr.S_col_cmp_const (c, op, v) when c = col ->
         (match op with
          | Expr.Eq -> tighten_lo v true; tighten_hi v true; used := conj :: !used
          | Expr.Lt -> tighten_hi v false; used := conj :: !used
          | Expr.Le -> tighten_hi v true; used := conj :: !used
          | Expr.Gt -> tighten_lo v false; used := conj :: !used
          | Expr.Ge -> tighten_lo v true; used := conj :: !used
          | Expr.Ne -> ())
       | Expr.S_col_between (c, l, h) when c = col ->
         tighten_lo l true;
         tighten_hi h true;
         used := conj :: !used
       | _ -> ())
    conjs;
  (!lo, !hi, !used)

(* All access paths for a relation: sequential scan, index range scans for
   every index with a usable bound, and full index scans on columns whose
   order is interesting further up (they cost more I/O but deliver sorted
   output for merge joins, streaming aggregation or ORDER BY). *)
let access_paths ctx ~(rel : Stats_env.rel_info) ~local ~interesting =
  let filter = match local with [] -> None | l -> Some (Expr.conjoin l) in
  let seq =
    mk_seq_scan ctx ~table:rel.Stats_env.table ~alias:rel.Stats_env.alias
      ~filter ~schema:rel.Stats_env.rel_schema
  in
  ctx.enumerated <- ctx.enumerated + 1;
  let ranged =
    List.filter_map
      (fun col ->
         let lo, hi, used = index_bounds local col in
         if lo = None && hi = None then None
         else begin
           ctx.enumerated <- ctx.enumerated + 1;
           let index_sel = sel ctx (Expr.conjoin used) in
           Some
             (mk_index_scan ctx ~table:rel.Stats_env.table
                ~alias:rel.Stats_env.alias ~index_col:col ~lo ~hi ~filter
                ~schema:rel.Stats_env.rel_schema ~index_sel)
         end)
      rel.Stats_env.indexed_cols
  in
  let ordered =
    List.filter_map
      (fun col ->
         let already =
           List.exists
             (fun (p : Plan.t) -> List.mem col (Plan.orders_of p))
             ranged
         in
         if already || not (List.mem col interesting) then None
         else begin
           ctx.enumerated <- ctx.enumerated + 1;
           Some
             (mk_index_scan ctx ~table:rel.Stats_env.table
                ~alias:rel.Stats_env.alias ~index_col:col ~lo:None ~hi:None
                ~filter ~schema:rel.Stats_env.rel_schema ~index_sel:1.0)
         end)
      rel.Stats_env.indexed_cols
  in
  seq :: (ranged @ ordered)

(* ------------------------------------------------------------------ *)
(* Join enumeration (DP over alias subsets).                           *)

(* The DP memo holds cost-only entries.  An entry is one costed
   alternative: its estimate, memory demands, degree, the interesting
   orders it delivers (as small integer ids) and back-pointers to the
   entries it joins, plus the node id it reserved when it was costed.  A
   [Plan.t] is built only for the entries reachable from the final
   candidates ([materialize]), under the ids they reserved, so the
   returned plans, their ids and the enumerated count are exactly those
   of building every alternative as a plan. *)
type entry = {
  e_id : int;
  e_est : Plan.est;
  e_orders : int array;
  e_dop : int;
  e_min_mem : int;
  e_max_mem : int;
  e_mem : int;
  alt : alt;
  mutable built : Plan.t option;
}

and alt =
  | Access of { plan : Plan.t; bit : int }
  | Hash of { build : entry; probe : entry; split : split; rf : Plan.rf list }
  | Merge of {
      left : entry;
      right : entry;
      split : split;
      left_sorted : bool;
      right_sorted : bool;
      rf : Plan.rf list;
    }
  | Inlj of { outer : entry; inner : inner_rel; key : inlj_key }
  | Bnl of { outer : entry; inner : entry; pred : Expr.t option }

(* One ordered split of a subset into s1 (probe / outer / left side) and
   s2 (build / inner / right side): everything that depends on the split
   alone, computed once for all the pairs of alternatives joined across
   it. *)
and split = {
  keys : (string * string) list;  (* (s1 column, s2 column) *)
  swapped : (string * string) list;  (* (s2 column, s1 column) *)
  extra : Expr.t option;  (* residual and complex conjuncts *)
  extra_sel : float;
  jsel : float;
  single_key : (int * int) option;  (* order ids of a lone key pair *)
  merge_orders : int array;
  inlj : (inner_rel * inlj_key list) option;
      (* s2's relation and the keys an index on it can serve, in key order *)
}

and inlj_key = {
  outer_col : string;
  inner_col : string;
  ij_extra : Expr.t option;  (* the other keys plus the split's extra *)
  ij_jsel : float;
  ij_extra_sel : float;
}

(* The single base relation on the inner side of an index nested-loops
   join. *)
and inner_rel = {
  table : string;
  alias : string;
  filter : Expr.t option;
  filter_sel : float;
  inner_rows : float;
  inner_schema : Schema.t;
}

(* A join conjunct with the mask of the relations it references; an
   equi-join [a = b] also keeps the bit of [a]'s relation, which orients
   the key on each split. *)
type edge = {
  conj : Expr.t;
  edge_mask : int;
  eq : (string * string * int) option;
}

let no_orders = [||]

let rec mem_from (a : int array) o i =
  i < Array.length a && (a.(i) = o || mem_from a o (i + 1))

let delivers e o = mem_from e.e_orders o 0

(* Record [e] as the provider of each order it delivers unless an earlier
   entry delivering that order is no dearer: [providers.(o)] ends as the
   first of the cheapest providers of [o], in the order entries are
   offered. *)
let offer providers e =
  let orders = e.e_orders in
  for i = 0 to Array.length orders - 1 do
    let o = orders.(i) in
    match providers.(o) with
    | Some p when not (e.e_est.Plan.total_ms < p.e_est.Plan.total_ms) -> ()
    | _ -> providers.(o) <- Some e
  done

let new_entry ctx ~width ~orders (c : cost) children alt =
  { e_id = fresh_id ctx;
    e_est = node_est ~rows:c.rows ~width ~op_ms:c.op_ms children;
    e_orders = orders;
    e_dop = c.dop;
    e_min_mem = c.min_mem;
    e_max_mem = c.max_mem;
    e_mem = c.mem;
    alt;
    built = None }

(* The plan an entry stands for; shared subtrees are built once. *)
let rec materialize e =
  match e.built with
  | Some p -> p
  | None ->
    let node, schema =
      match e.alt with
      | Access { plan; _ } -> (plan.Plan.node, plan.Plan.schema)
      | Hash { build; probe; split; rf } ->
        let build = materialize build and probe = materialize probe in
        ( Plan.Hash_join
            { build; probe; keys = split.keys; extra = split.extra; rf },
          Schema.concat probe.Plan.schema build.Plan.schema )
      | Merge { left; right; split; left_sorted; right_sorted; rf } ->
        let left = materialize left and right = materialize right in
        ( Plan.Merge_join
            { left; right; keys = split.keys; extra = split.extra;
              left_sorted; right_sorted; rf },
          Schema.concat left.Plan.schema right.Plan.schema )
      | Inlj { outer; inner; key } ->
        let outer = materialize outer in
        ( Plan.Index_nl_join
            { outer; table = inner.table; alias = inner.alias;
              outer_col = key.outer_col; inner_col = key.inner_col;
              inner_filter = inner.filter; extra = key.ij_extra },
          Schema.concat outer.Plan.schema inner.inner_schema )
      | Bnl { outer; inner; pred } ->
        let outer = materialize outer and inner = materialize inner in
        ( Plan.Block_nl_join { outer; inner; pred },
          Schema.concat outer.Plan.schema inner.Plan.schema )
    in
    let p =
      { Plan.id = e.e_id; node; schema; est = e.e_est; min_mem = e.e_min_mem;
        max_mem = e.e_max_mem; mem = e.e_mem; dop = e.e_dop }
    in
    e.built <- Some p;
    p

(* [rels] pairs each relation alias with its candidate access paths.  The
   DP keeps, per subset of relations, a small Pareto set: the cheapest plan
   overall plus the cheapest plan delivering each interesting order
   (System R's interesting orders). *)
let optimize_joins ctx options ~rels ~join_conjs ~complex_conjs ~interesting =
  let n = List.length rels in
  if n > 16 then raise (Planning_error "too many relations (max 16)");
  let alias_bit = List.mapi (fun i (alias, _) -> (alias, 1 lsl i)) rels in
  let bit_of alias = List.assoc alias alias_bit in
  let mask_of owners =
    List.fold_left (fun acc a -> acc lor bit_of a) 0 owners
  in
  let full = (1 lsl n) - 1 in
  let with_rf = options.enable_runtime_filters in
  (* Interesting orders as ids: position in [interesting]. *)
  let n_orders = List.length interesting in
  let order_ids = Hashtbl.create 16 in
  List.iteri (fun i c -> Hashtbl.replace order_ids c i) interesting;
  let order_id c = Option.value ~default:(-1) (Hashtbl.find_opt order_ids c) in
  let order_set cols =
    Array.of_list (List.filter (fun o -> o >= 0) (List.map order_id cols))
  in
  let rel_schemas =
    List.map (fun (_, paths) -> (List.hd paths).Plan.schema) rels
  in
  (* Every plan for a subset has the same columns in some order, so its
     width (header plus column widths) depends on the subset alone. *)
  let width_of_mask mask =
    match List.filteri (fun i _ -> mask land (1 lsl i) <> 0) rel_schemas with
    | [] -> invalid_arg "width_of_mask: empty subset"
    | s :: rest -> width_of (List.fold_left Schema.concat s rest)
  in
  (* Relations whose scans own a column: where its runtime filter lands. *)
  let owners = Hashtbl.create 16 in
  let owner_bits col =
    match Hashtbl.find_opt owners col with
    | Some b -> b
    | None ->
      let b =
        List.mapi (fun i s -> if schema_owns s col then 1 lsl i else 0)
          rel_schemas
        |> List.fold_left ( lor ) 0
      in
      Hashtbl.add owners col b;
      b
  in
  (* [rf_sites] of the plan [e] stands for: owning scan leaves, pre-order. *)
  let sites_in e col =
    let own = owner_bits col in
    let rec go acc e =
      match e.alt with
      | Access { plan; bit } ->
        if bit land own = 0 then acc
        else
          (match plan.Plan.node with
           | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } ->
             alias :: acc
           | _ -> acc)
      | Hash { build; probe; _ } -> go (go acc build) probe
      | Merge { left; right; _ } -> go (go acc left) right
      | Inlj { outer; _ } -> go acc outer
      | Bnl { outer; inner; _ } -> go (go acc outer) inner
    in
    List.rev (go [] e)
  in
  let best = Array.make (full + 1) [] in
  let cheapest = function
    | [] -> invalid_arg "cheapest: empty"
    | e :: rest ->
      List.fold_left
        (fun a b ->
           if b.e_est.Plan.total_ms < a.e_est.Plan.total_ms then b else a)
        e rest
  in
  (* Pareto retention: cheapest overall + cheapest provider per order,
     each the first of its minima in list order; providers are added in
     order-id order.  [providers] is scratch space, emptied on the way
     out. *)
  let providers = Array.make n_orders None in
  let retained entries =
    List.iter (offer providers) entries;
    let keep = ref [ cheapest entries ] in
    for o = 0 to n_orders - 1 do
      match providers.(o) with
      | None -> ()
      | Some c ->
        providers.(o) <- None;
        if not (List.memq c !keep) then keep := c :: !keep
    done;
    !keep
  in
  let consider mask e = best.(mask) <- retained (e :: best.(mask)) in
  let edge ci =
    { conj = ci.expr;
      edge_mask = mask_of ci.owners;
      eq =
        (match Expr.shape_of ci.expr with
         | Expr.S_col_eq_col (a, b) ->
           Some (a, b, bit_of (alias_owning ctx.env a))
         | _ -> None) }
  in
  let joins = List.map edge join_conjs in
  let complexes = List.map edge complex_conjs in
  (* Conjuncts that become applicable exactly when [mask] is assembled by
     joining [s1] and [s2]: owners span both sides. *)
  let spanning all s1 s2 =
    List.filter
      (fun e ->
         let m = e.edge_mask in
         m land s1 <> 0 && m land s2 <> 0 && m land lnot (s1 lor s2) = 0)
      all
  in
  (* Singletons. *)
  List.iteri
    (fun i (_, paths) ->
       List.iter
         (fun (p : Plan.t) ->
            consider (1 lsl i)
              { e_id = p.Plan.id; e_est = p.Plan.est;
                e_orders = order_set (Plan.orders_of p); e_dop = p.Plan.dop;
                e_min_mem = p.Plan.min_mem; e_max_mem = p.Plan.max_mem;
                e_mem = p.Plan.mem; alt = Access { plan = p; bit = 1 lsl i };
                built = Some p })
         paths)
    rels;
  (* Inner side of an index nested-loops join: a singleton's relation,
     with the scan parameters of its access paths. *)
  let inner_rel s2 =
    match best.(s2) with
    | { alt = Access { plan; _ }; _ } :: _ ->
      (match plan.Plan.node with
       | Plan.Seq_scan { table; alias; filter }
       | Plan.Index_scan { table; alias; filter; _ } ->
         let info = Stats_env.rel ctx.env ~alias in
         Some
           ( { table; alias; filter; filter_sel = sel_opt ctx filter;
               inner_rows = info.Stats_env.rows;
               inner_schema = info.Stats_env.rel_schema },
             info.Stats_env.indexed_cols )
       | _ -> None)
    | _ -> None
  in
  let split_of s1 s2 conns =
    (* split conjuncts into equality keys and residual *)
    let keys, residual =
      List.partition_map
        (fun e ->
           match e.eq with
           | Some (a, b, a_bit) ->
             if a_bit land s1 <> 0 then Left (a, b) else Left (b, a)
           | None -> Right e.conj)
        conns
    in
    let extra_list =
      residual @ List.map (fun e -> e.conj) (spanning complexes s1 s2)
    in
    let extra = match extra_list with [] -> None | l -> Some (Expr.conjoin l) in
    let inlj =
      if keys = [] || not options.enable_index_join || s2 land (s2 - 1) <> 0
      then None
      else
        match inner_rel s2 with
        | None -> None
        | Some (inner, indexed) ->
          List.filter_map
            (fun (outer_col, inner_col) ->
               if not (List.mem inner_col indexed) then None
               else begin
                 let other_keys =
                   List.filter
                     (fun (o, i) -> (o, i) <> (outer_col, inner_col))
                     keys
                 in
                 let extra_all =
                   List.map
                     (fun (o, i) -> Expr.(Cmp (Eq, Col o, Col i)))
                     other_keys
                   @ extra_list
                 in
                 let ij_extra =
                   match extra_all with [] -> None | l -> Some (Expr.conjoin l)
                 in
                 Some
                   { outer_col; inner_col; ij_extra;
                     ij_jsel = equijoin_sel ctx ~left:outer_col ~right:inner_col;
                     ij_extra_sel = sel_opt ctx ij_extra }
               end)
            keys
          |> function [] -> None | ks -> Some (inner, ks)
    in
    { keys;
      swapped = List.map (fun (l, r) -> (r, l)) keys;
      extra;
      extra_sel = sel_opt ctx extra;
      jsel = join_sel ctx ~keys ~extra;
      (* join-key columns are always interesting orders, so a side
         delivers a key exactly when it delivers the key's order id *)
      single_key =
        (match keys with
         | [ (l, r) ] -> Some (order_id l, order_id r)
         | _ -> None);
      merge_orders =
        (match keys with (l, r) :: _ -> order_set [ l; r ] | [] -> no_orders);
      inlj }
  in
  (* Subsets in increasing popcount order: iterating masks ascending works
     because any strict submask is numerically smaller. *)
  for mask = 1 to full do
    if mask land (mask - 1) <> 0 then begin
      let width = width_of_mask mask in
      (* all ordered splits (s1 = probe/outer side, s2 = build/inner) *)
      let s1 = ref (mask land (mask - 1)) in
      while !s1 > 0 do
        let s2 = mask lxor !s1 in
        let lefts = best.(!s1) and rights = best.(s2) in
        let bushy_ok =
          options.enable_bushy || s2 land (s2 - 1) = 0 (* right singleton *)
        in
        let conns = spanning joins !s1 s2 in
        if lefts <> [] && rights <> [] && bushy_ok && conns <> [] then begin
          let sp = split_of !s1 s2 conns in
          List.iter
            (fun left ->
               List.iter
                 (fun right ->
                    if sp.keys <> [] then begin
                      ctx.enumerated <- ctx.enumerated + 1;
                      let rf =
                        rf_annotations ctx ~with_rf
                          ~build_rows:right.e_est.Plan.rows
                          ~sites:(sites_in left) ~keys:sp.keys
                      in
                      consider mask
                        (new_entry ctx ~width ~orders:no_orders
                           (est_hash_join ctx ~build:right.e_est
                              ~probe:left.e_est ~keys:sp.keys ~jsel:sp.jsel ~rf
                              ~mem:0)
                           [ right.e_est; left.e_est ]
                           (Hash { build = right; probe = left; split = sp; rf }));
                      if options.enable_merge_join then begin
                        ctx.enumerated <- ctx.enumerated + 1;
                        let left_sorted, right_sorted =
                          match sp.single_key with
                          | Some (l, r) -> (delivers left l, delivers right r)
                          | None -> (false, false)
                        in
                        let rf =
                          rf_annotations ctx ~with_rf
                            ~build_rows:left.e_est.Plan.rows
                            ~sites:(sites_in right) ~keys:sp.swapped
                        in
                        consider mask
                          (new_entry ctx ~width ~orders:sp.merge_orders
                             (est_merge_join ctx ~left:left.e_est
                                ~right:right.e_est ~jsel:sp.jsel ~left_sorted
                                ~right_sorted ~rf ~mem:0)
                             [ left.e_est; right.e_est ]
                             (Merge
                                { left; right; split = sp; left_sorted;
                                  right_sorted; rf }))
                      end
                    end
                    else begin
                      (* connected only through non-equi predicates *)
                      ctx.enumerated <- ctx.enumerated + 1;
                      consider mask
                        (new_entry ctx ~width ~orders:no_orders
                           (est_block_nl_join ctx ~outer:left.e_est
                              ~inner:right.e_est ~pred_sel:sp.extra_sel ~mem:0)
                           [ left.e_est; right.e_est ]
                           (Bnl { outer = left; inner = right; pred = sp.extra }))
                    end)
                 rights;
               (* indexed nested loops: inner side must be a single base
                  relation with an index on its key column *)
               match sp.inlj with
               | None -> ()
               | Some (inner, keys) ->
                 List.iter
                   (fun key ->
                      ctx.enumerated <- ctx.enumerated + 1;
                      consider mask
                        (new_entry ctx ~width ~orders:left.e_orders
                           (est_index_nl_join ctx ~outer:left.e_est
                              ~inner_rows:inner.inner_rows ~jsel:key.ij_jsel
                              ~filtered:(inner.filter <> None)
                              ~filter_sel:inner.filter_sel
                              ~extra_sel:key.ij_extra_sel)
                           [ left.e_est ]
                           (Inlj { outer = left; inner; key })))
                   keys)
            lefts
        end;
        s1 := (!s1 - 1) land mask
      done;
      (* Cross-product fallback when nothing connected this subset. *)
      if best.(mask) = [] then begin
        let s1 = ref (mask land (mask - 1)) in
        while !s1 > 0 do
          let s2 = mask lxor !s1 in
          (match best.(!s1), best.(s2) with
           | left :: _, right :: _ ->
             let pred =
               match spanning complexes !s1 s2 with
               | [] -> None
               | l -> Some (Expr.conjoin (List.map (fun e -> e.conj) l))
             in
             ctx.enumerated <- ctx.enumerated + 1;
             consider mask
               (new_entry ctx ~width ~orders:no_orders
                  (est_block_nl_join ctx ~outer:left.e_est ~inner:right.e_est
                     ~pred_sel:(sel_opt ctx pred) ~mem:0)
                  [ left.e_est; right.e_est ]
                  (Bnl { outer = left; inner = right; pred }))
           | _ -> ());
          s1 := (!s1 - 1) land mask
        done
      end
    end
  done;
  match best.(full) with
  | [] -> raise (Planning_error "join enumeration produced no plan")
  | entries -> List.map materialize entries

(* ------------------------------------------------------------------ *)
(* Full query planning.                                                *)

let agg_fn_of = function
  | Mqr_sql.Ast.Count -> Aggregate.Count
  | Mqr_sql.Ast.Sum -> Aggregate.Sum
  | Mqr_sql.Ast.Avg -> Aggregate.Avg
  | Mqr_sql.Ast.Min -> Aggregate.Min
  | Mqr_sql.Ast.Max -> Aggregate.Max

let agg_specs (q : Query.t) =
  List.map
    (fun (a : Query.agg) ->
       { Aggregate.fn = agg_fn_of a.Query.fn;
         distinct_arg = a.Query.distinct_arg;
         arg = a.Query.arg;
         out_name = a.Query.out_name })
    q.Query.aggs

let plan_query ctx options (q : Query.t) =
  let infos = List.map (conj_info ctx.env) q.Query.conjuncts in
  let local, rest =
    List.partition (fun ci -> List.length ci.owners <= 1) infos
  in
  let join_conjs, complex_conjs =
    List.partition
      (fun ci ->
         List.length ci.owners = 2
         &&
         match Expr.shape_of ci.expr with
         | Expr.S_col_eq_col _ | Expr.S_col_cmp_col _ -> true
         | _ -> false)
      rest
  in
  (* Interesting orders: join-key columns (merge joins), grouping columns
     (streaming aggregation), and a single ascending ORDER BY column (sort
     elision). *)
  let interesting =
    let join_cols =
      List.concat_map
        (fun ci ->
           match Expr.shape_of ci.expr with
           | Expr.S_col_eq_col (a, b) -> [ a; b ]
           | _ -> [])
        join_conjs
    in
    let order_cols =
      match q.Query.order_by with [ (c, true) ] -> [ c ] | _ -> []
    in
    List.sort_uniq String.compare (join_cols @ q.Query.group_by @ order_cols)
  in
  (* Base access paths with local predicates pushed down. *)
  let rels =
    List.map
      (fun (r : Query.relation) ->
         let rel = Stats_env.rel ctx.env ~alias:r.Query.alias in
         let my_local =
           List.filter_map
             (fun ci ->
                match ci.owners with
                | [ a ] when a = r.Query.alias -> Some ci.expr
                | _ -> None)
             local
         in
         (r.Query.alias, access_paths ctx ~rel ~local:my_local ~interesting))
      q.Query.relations
  in
  let candidates =
    match rels with
    | [ (_, paths) ] -> paths
    | _ -> optimize_joins ctx options ~rels ~join_conjs ~complex_conjs ~interesting
  in
  (* Complete each join candidate with aggregation / projection / ordering
     and keep the cheapest finished plan; a candidate that already delivers
     the needed order skips its sort, one grouped on the grouping column
     aggregates in a streaming pass. *)
  let complete joined =
    let with_agg =
      if q.Query.aggs = [] && q.Query.group_by = [] then joined
      else
        mk_aggregate ctx ~input:joined ~group_by:q.Query.group_by
          ~aggs:(agg_specs q) ~mem:0
    in
    let with_having =
      match q.Query.having with
      | None -> with_agg
      | Some pred -> mk_filter ctx ~input:with_agg ~pred
    in
    (* Sort before projecting: ORDER BY may reference columns that are not
       in the SELECT list, and projection preserves row order. *)
    let with_sort =
      match q.Query.order_by with
      | [] -> with_having
      | [ (c, true) ] when List.mem c (Plan.orders_of with_having) ->
        with_having (* order already delivered: sort elided *)
      | keys -> mk_sort ctx ~input:with_having ~keys ~mem:0
    in
    let with_project =
      if q.Query.aggs = [] && q.Query.group_by = [] then
        mk_project ctx ~input:with_sort ~cols:q.Query.select_cols
      else with_sort
    in
    match q.Query.limit with
    | None -> with_project
    | Some n -> mk_limit ctx ~input:with_project ~n
  in
  match List.map complete candidates with
  | [] -> raise (Planning_error "no plan produced")
  | first :: rest ->
    List.fold_left
      (fun (a : Plan.t) (b : Plan.t) ->
         if b.Plan.est.Plan.total_ms < a.Plan.est.Plan.total_ms then b else a)
      first rest

let optimize ?(options = default_options) ?clock ~model ~env q =
  let ctx =
    make_ctx ~planning_mem:options.planning_mem_pages ~max_dop:options.max_dop
      ~model ~env ()
  in
  let plan = plan_query ctx options q in
  (match clock with
   | Some c -> Sim_clock.charge_optimizer c ~plans:ctx.enumerated
   | None -> ());
  { plan; plans_enumerated = ctx.enumerated }

(* ------------------------------------------------------------------ *)
(* Re-costing an existing structure under improved statistics.         *)

let recost ?(planning_mem = default_options.planning_mem_pages) ?(max_dop = 1)
    ~model ~env plan =
  let ctx = make_ctx ~planning_mem ~max_dop ~model ~env () in
  let rec go (p : Plan.t) =
    let keep_mem = p.Plan.mem in
    let rebuilt =
      match p.Plan.node with
      | Plan.Seq_scan { table; alias; filter } ->
        mk_seq_scan ctx ~table ~alias ~filter ~schema:p.Plan.schema
      | Plan.Index_scan { table; alias; index_col; lo; hi; filter } ->
        let used_sel =
          (* selectivity of the bound constraints alone *)
          let conj_of_bound =
            let col = Expr.Col index_col in
            let lo_e =
              Option.map
                (fun (v, incl) ->
                   Expr.Cmp ((if incl then Expr.Ge else Expr.Gt), col, Expr.Const v))
                lo
            in
            let hi_e =
              Option.map
                (fun (v, incl) ->
                   Expr.Cmp ((if incl then Expr.Le else Expr.Lt), col, Expr.Const v))
                hi
            in
            Expr.conjoin (List.filter_map Fun.id [ lo_e; hi_e ])
          in
          sel ctx conj_of_bound
        in
        mk_index_scan ctx ~table ~alias ~index_col ~lo ~hi ~filter
          ~schema:p.Plan.schema ~index_sel:used_sel
      | Plan.Hash_join { build; probe; keys; extra; rf } ->
        mk_hash_join ctx ~build:(go build) ~probe:(go probe) ~keys ~extra
          ~mem:keep_mem ~with_rf:(rf <> [])
      | Plan.Index_nl_join
          { outer; table; alias; outer_col; inner_col; inner_filter; extra } ->
        let info = Stats_env.rel ctx.env ~alias in
        mk_index_nl_join ctx ~outer:(go outer) ~table ~alias ~outer_col
          ~inner_col ~inner_filter ~extra
          ~inner_schema:info.Stats_env.rel_schema
      | Plan.Block_nl_join { outer; inner; pred } ->
        mk_block_nl_join ctx ~outer:(go outer) ~inner:(go inner) ~pred
          ~mem:keep_mem
      | Plan.Merge_join { left; right; keys; extra; rf; _ } ->
        mk_merge_join ctx ~left:(go left) ~right:(go right) ~keys ~extra
          ~mem:keep_mem ~with_rf:(rf <> [])
      | Plan.Aggregate { input; group_by; aggs; _ } ->
        mk_aggregate ctx ~input:(go input) ~group_by ~aggs ~mem:keep_mem
      | Plan.Sort { input; keys } ->
        mk_sort ctx ~input:(go input) ~keys ~mem:keep_mem
      | Plan.Project { input; cols } -> mk_project ctx ~input:(go input) ~cols
      | Plan.Filter { input; pred } -> mk_filter ctx ~input:(go input) ~pred
      | Plan.Limit { input; n } -> mk_limit ctx ~input:(go input) ~n
      | Plan.Collect { input; spec; cid } ->
        mk_collect ctx ~input:(go input) ~spec ~cid
      | Plan.Materialized { on_disk; _ } ->
        let rows = p.Plan.est.Plan.rows and width = p.Plan.est.Plan.width in
        let op_ms =
          if on_disk then
            Cost_model.seq_scan_ms ctx.model
              ~pages:(Cost_model.pages ~rows ~width) ~rows
          else 0.0
        in
        { p with Plan.est = { p.Plan.est with Plan.op_ms; total_ms = op_ms } }
    in
    { rebuilt with Plan.id = p.Plan.id }
  in
  go plan

(* ------------------------------------------------------------------ *)
(* Calibration of T_opt,estimated (worst case: star join).             *)

let binom n k =
  let k = min k (n - k) in
  if k < 0 then 0.0
  else begin
    let r = ref 1.0 in
    for i = 1 to k do
      r := !r *. float_of_int (n - k + i) /. float_of_int i
    done;
    !r
  end

let estimated_opt_ms ~model ~relations =
  let n = max 1 relations in
  (* Connected subsets of a star of n relations contain the hub; a subset
     of size k admits 2(k-1) ordered connected splits, each costed with up
     to two physical alternatives, plus access-path enumeration. *)
  let count = ref (2.0 *. float_of_int n) in
  for k = 2 to n do
    count := !count +. (binom (n - 1) (k - 1) *. 4.0 *. float_of_int (k - 1))
  done;
  !count *. model.Sim_clock.opt_per_plan_ms
