(* The four workloads.  Each runs against the public API only: the
   engine receives nothing but the generated SQL and DML texts.  An
   untraced run yields the end-to-end metrics; a traced run wraps the
   calls into each layer's public functions in spans and yields the
   per-layer metrics. *)

open Mqr_core
module Catalog = Mqr_catalog.Catalog
module Optimizer = Mqr_opt.Optimizer
module Stats_env = Mqr_opt.Stats_env
module Memory_manager = Mqr_memman.Memory_manager
module Verifier = Mqr_analysis.Verifier
module Bounds = Mqr_analysis.Bounds
module Service = Mqr_wlm.Service
module Session = Mqr_wlm.Session

let now = Unix.gettimeofday
let ms_since t0 = 1000.0 *. (now () -. t0)

(* Process CPU time, user plus system, summed over every domain, less
   the reference job's.  The gated timings start from it rather than from
   the wall clock: on a shared virtual machine the wall clock also counts
   the time the hypervisor gave the vCPU to someone else.  They are then
   scaled to the reference job's speed (see calib.ml and NOTES.md,
   "Clocks"). *)
let cpu = Calib.cpu
let cpu_ms_since c0 = 1000.0 *. (cpu () -. c0)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;       (* what the JSON result line carries *)
  report : (string * string) list;  (* every metric the run knows, for humans *)
  statements : (string * Gen.stmt) list;  (* what ran, for --dump *)
  spans : Spans.t option;
}

let m name value unit_ = { name; value; unit_ }

(* --- set-up ------------------------------------------------------------- *)

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows.  Each repetition builds the catalog and the engine; only
   the last one is kept, the others are shut down and dropped.  Smaller
   catalogs build faster and are repeated more often. *)
let setup_reps ~sf = if sf >= 0.01 then 3 else if sf >= 0.004 then 5 else 7

type 'a prepared = {
  catalog : Catalog.t;
  built : 'a;
  setup_s : float;       (* median over the repetitions, scaled CPU seconds *)
  generate_ms : float;   (* median experiment_catalog time, scaled CPU ms *)
}

let experiment_catalog ~sf = Mqr_tpcd.Workload.experiment_catalog ~sf ()

let build ~sf make =
  (* start every repetition from the same, collected heap *)
  Gc.full_major ();
  let before = Calib.run () in
  let c0 = cpu () in
  let catalog = experiment_catalog ~sf in
  let gen_ms = cpu_ms_since c0 in
  let x = make catalog in
  let total_s = cpu () -. c0 in
  let k = Calib.scale ((before +. Calib.run ()) /. 2.0) in
  (catalog, x, (k *. gen_ms, k *. total_s))

let prepare ~sf ~make ~discard =
  let rec go k times =
    let catalog, x, time = build ~sf make in
    if k = 1 then (catalog, x, time :: times)
    else begin
      discard x;
      go (k - 1) (time :: times)
    end
  in
  let catalog, built, times = go (setup_reps ~sf) [] in
  Gc.full_major ();
  { catalog; built;
    setup_s = Stat.median (List.map snd times);
    generate_ms = Stat.median (List.map fst times) }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- per-query observations -------------------------------------------- *)

(* What the benchmark keeps of a query's report: the rows for the oracle
   and the figures the metrics need.  The report itself is dropped at
   once, so the heap does not grow with the number of statements run. *)
type summary = {
  rows : Mqr_storage.Tuple.t array;
  elapsed_ms : float;
  replans : int;            (* Ev_considered with Consider: optimizer re-invoked *)
  switches : int;           (* Ev_switched *)
  skews : float list;       (* max / avg worker ms per Ev_parallel *)
  rf_probed : int;          (* summed over Ev_filter *)
  rf_dropped : int;
  collector_ms : float;
}

let summarize (r : Dispatcher.report) =
  let count f = List.length (List.filter (fun (_, e) -> f e) r.Dispatcher.timed_events) in
  let probed, dropped =
    List.fold_left
      (fun (p, d) -> function
         | _, Dispatcher.Ev_filter { probed; dropped; _ } -> (p + probed, d + dropped)
         | _ -> (p, d))
      (0, 0) r.Dispatcher.timed_events
  in
  { rows = r.Dispatcher.rows;
    elapsed_ms = r.Dispatcher.elapsed_ms;
    replans =
      count (function
        | Dispatcher.Ev_considered { decision = Reopt_policy.Consider; _ } -> true
        | _ -> false);
    switches = count (function Dispatcher.Ev_switched _ -> true | _ -> false);
    skews =
      List.filter_map
        (function
          | _, Dispatcher.Ev_parallel { max_worker_ms; avg_worker_ms; _ }
            when avg_worker_ms > 0.0 ->
            Some (max_worker_ms /. avg_worker_ms)
          | _ -> None)
        r.Dispatcher.timed_events;
    rf_probed = probed;
    rf_dropped = dropped;
    collector_ms = r.Dispatcher.collector_ms }

type outcome =
  | Rows of summary
  | Wrote
  | Failed of string

type sample = {
  idx : int;
  stmt : Gen.stmt;
  wall_ms : float;
  cpu_ms : float;
  ref_ms : float;     (* the reference job, run right before the statement *)
  norm_ms : float;    (* cpu_ms at the reference speed; see [closed_loop] *)
  outcome : outcome;
  minor_words : float;  (* allocated by the calling domain *)
  minor_gcs : int;
}

let gc_marks () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.minor_collections)

(* --- the layer probe ----------------------------------------------------- *)

(* Rebuild a statement's instrumented plan the way the dispatcher does,
   one public call per layer, each in its own span: bind, optimize over a
   fresh estimation environment, insert collectors, verify, bound. *)
type probe = {
  plans : int;
  opt_words : float;
  opt_ms : float;
  eq1_ratio : float;  (* measured optimize ms / Optimizer.estimated_opt_ms *)
  collectors : int;
}

let probe tr engine ~qid sql =
  let span name f = Spans.with_span tr name ~qid f in
  span "bench.probe" (fun () ->
      let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
      let catalog = cfg.Dispatcher.catalog and model = cfg.Dispatcher.model in
      let opts = cfg.Dispatcher.opt_options in
      let q = span "sql.bind" (fun () -> Engine.bind_sql engine sql) in
      let w0 = Gc.minor_words () and t0 = now () in
      let env, r =
        span "opt.optimize" (fun () ->
            let env = Stats_env.create catalog q.Mqr_sql.Query.relations in
            (env, Optimizer.optimize ~options:opts ~model ~env q))
      in
      let opt_ms = ms_since t0 and opt_words = Gc.minor_words () -. w0 in
      let mu = cfg.Dispatcher.params.Reopt_policy.mu in
      let scia = span "core.scia" (fun () -> Scia.insert ~mu ~env r.Optimizer.plan) in
      let plan =
        Optimizer.recost ~planning_mem:opts.Optimizer.planning_mem_pages
          ~max_dop:opts.Optimizer.max_dop ~model ~env scia.Scia.plan
      in
      let budget_pages = cfg.Dispatcher.budget_pages in
      ignore (Memory_manager.allocate (Memory_manager.create ~budget_pages) plan);
      let vctx = Verifier.context ~budget_pages ~mu catalog in
      ignore (span "analysis.verify" (fun () -> Verifier.verify vctx plan));
      let benv = Bounds.env catalog in
      ignore (span "analysis.bounds" (fun () -> Bounds.analyze benv plan));
      let est =
        Optimizer.estimated_opt_ms ~model
          ~relations:(List.length q.Mqr_sql.Query.relations)
      in
      { plans = r.Optimizer.plans_enumerated; opt_words; opt_ms;
        eq1_ratio = Stat.ratio opt_ms est;
        collectors = List.length scia.Scia.kept })

(* --- closed loops --------------------------------------------------------- *)

(* One client: the next statement is sent once the previous one returns.
   The loop runs at least [min_stmts] statements (the window the
   simulated metrics are summed over) and then until [seconds] of wall
   time have passed, stopping on a [cycle] boundary so that every
   template stays equally represented.  The reference job runs before
   every statement and once after the last; each statement's CPU time is
   scaled by the mean of the runs right before and right after it.
   Returns the samples and the wall seconds the loop took. *)
let closed_loop ~seconds ~min_stmts ~cycle ~next exec =
  let t0 = now () in
  let rec go i acc =
    if i >= min_stmts && i mod cycle = 0 && now () -. t0 >= seconds then
      (List.rev acc, now () -. t0)
    else begin
      let ref_ms = Calib.run () in
      let s = next i in
      go (i + 1) ({ (exec i s) with ref_ms } :: acc)
    end
  in
  let samples, wall_s = go 0 [] in
  let rec normalize = function
    | [] -> []
    | s :: rest ->
      let after = match rest with n :: _ -> n.ref_ms | [] -> Calib.run () in
      { s with norm_ms = s.cpu_ms *. Calib.scale ((s.ref_ms +. after) /. 2.0) }
      :: normalize rest
  in
  (normalize samples, wall_s)

(* The untraced path: one public call per statement.  Only the call is
   timed; summarizing its report is not. *)
let exec_plain engine i (s : Gen.stmt) =
  let w0, g0 = gc_marks () in
  let t0 = now () and c0 = cpu () in
  let result =
    try
      match s.Gen.kind with
      | Gen.Select -> Ok (Some (Engine.run_sql engine s.Gen.sql))
      | Gen.Insert | Gen.Delete | Gen.Analyze ->
        (match Engine.execute engine s.Gen.sql with
         | Engine.Rows _ -> Error "write statement returned rows"
         | Engine.Modified _ | Engine.Created _ | Engine.Analyzed _ -> Ok None)
    with e -> Error (Printexc.to_string e)
  in
  let wall_ms = ms_since t0 and cpu_ms = cpu_ms_since c0 in
  let w1, g1 = gc_marks () in
  let outcome =
    match result with
    | Ok (Some r) -> Rows (summarize r)
    | Ok None -> Wrote
    | Error e -> Failed e
  in
  { idx = i; stmt = s; wall_ms; cpu_ms; ref_ms = 0.0; norm_ms = 0.0; outcome;
    minor_words = w1 -. w0; minor_gcs = g1 - g0 }

(* The traced path for engines without a plan cache: the same work as
   [Engine.run_sql], split into bind, [Dispatcher.start] and each
   [Dispatcher.step].  GC counters cover the steps only (execution). *)
let exec_stepwise tr engine i (s : Gen.stmt) =
  let span name f = Spans.with_span tr name ~qid:i f in
  let t0 = now () and c0 = cpu () in
  let result =
    span "bench.query" (fun () ->
        try
          let q = span "sql.bind" (fun () -> Engine.bind_sql engine s.Gen.sql) in
          let cfg = Engine.dispatcher_config engine ~mode:Dispatcher.Full () in
          let run = span "dispatch.start" (fun () -> Dispatcher.start cfg q) in
          let w0, g0 = gc_marks () in
          let rec loop () =
            match span "dispatch.step" (fun () -> Dispatcher.step run) with
            | Some r -> r
            | None -> loop ()
          in
          let r = loop () in
          let w1, g1 = gc_marks () in
          Ok (r, w1 -. w0, g1 - g0)
        with e -> Error (Printexc.to_string e))
  in
  let wall_ms = ms_since t0 and cpu_ms = cpu_ms_since c0 in
  match result with
  | Ok (r, words, gcs) ->
    { idx = i; stmt = s; wall_ms; cpu_ms; ref_ms = 0.0; norm_ms = 0.0;
      outcome = Rows (summarize r); minor_words = words; minor_gcs = gcs }
  | Error e ->
    { idx = i; stmt = s; wall_ms; cpu_ms; ref_ms = 0.0; norm_ms = 0.0; outcome = Failed e;
      minor_words = 0.0; minor_gcs = 0 }

(* The traced path through the plan cache and the write path: one span
   per [Engine.run_sql] or [Engine.execute] call, named for the layer the
   statement loads. *)
let exec_engine_traced tr engine i (s : Gen.stmt) =
  let name =
    match s.Gen.kind with
    | Gen.Select -> "core.run_sql"
    | Gen.Insert -> "storage.insert"
    | Gen.Delete -> "storage.delete"
    | Gen.Analyze -> "catalog.analyze"
  in
  Spans.with_span tr "bench.query" ~qid:i (fun () ->
      Spans.with_span tr name ~qid:i (fun () -> exec_plain engine i s))

(* --- metric assembly ------------------------------------------------------ *)

let selects samples =
  List.filter (fun s -> s.stmt.Gen.kind = Gen.Select) samples

let writes samples =
  List.filter (fun s -> s.stmt.Gen.kind <> Gen.Select) samples

let reports samples =
  List.filter_map (fun s -> match s.outcome with Rows r -> Some r | _ -> None) samples

let errors samples =
  List.length (List.filter (fun s -> match s.outcome with Failed _ -> true | _ -> false) samples)

let fmt_ms v = Printf.sprintf "%.3f ms" v

(* p50 and tail of the samples' times at the reference speed, as
   [name]_norm_p50_ms and [name]_norm_tail_ms, then of their raw CPU
   times and of their wall times. *)
let latency_lines ~name samples =
  let lines clock f =
    let xs = List.map f samples in
    [ (Printf.sprintf "%s%s_p50_ms" name clock, fmt_ms (Stat.median xs));
      ( Printf.sprintf "%s%s_tail_ms" name clock,
        Printf.sprintf "%s (10th largest of n=%d)" (fmt_ms (Stat.tail xs)) (List.length xs) ) ]
  in
  lines "_norm" (fun s -> s.norm_ms) @ lines "_cpu" (fun s -> s.cpu_ms)
  @ lines "" (fun s -> s.wall_ms)

let na = "n/a (not exercised by this workload)"

(* Wall and simulated medians per template or write kind, for humans. *)
let per_label_lines samples =
  let labels = List.sort_uniq compare (List.map (fun s -> s.stmt.Gen.label) samples) in
  List.map
    (fun l ->
       let ss = List.filter (fun s -> s.stmt.Gen.label = l) samples in
       let sims =
         List.filter_map
           (fun s -> match s.outcome with Rows r -> Some r.elapsed_ms | _ -> None)
           ss
       in
       ( "  " ^ l,
         Printf.sprintf "n=%d norm p50 %s, cpu p50 %s, wall p50 %s, sim p50 %.1f sim_ms"
           (List.length ss)
           (fmt_ms (Stat.median (List.map (fun s -> s.norm_ms) ss)))
           (fmt_ms (Stat.median (List.map (fun s -> s.cpu_ms) ss)))
           (fmt_ms (Stat.median (List.map (fun s -> s.wall_ms) ss)))
           (Stat.median sims) ))
    labels

(* Compare rows against the oracle; returns the number of mismatches. *)
let check_rows ~expected samples =
  List.fold_left
    (fun bad s ->
       match s.outcome with
       | Rows r ->
         if Oracle.agrees ~expected:(expected s) ~got:(Oracle.canon r.rows)
         then bad
         else begin
           Printf.eprintf "perfbench: row mismatch on statement %d (%s)\n%!" s.idx
             s.stmt.Gen.label;
           bad + 1
         end
       | Wrote | Failed _ -> bad)
    0 samples

let print_errors samples =
  List.iter
    (fun s ->
       match s.outcome with
       | Failed e -> Printf.eprintf "perfbench: statement %d (%s) failed: %s\n%!" s.idx s.stmt.Gen.label e
       | Rows _ | Wrote -> ())
    samples

(* The end-to-end metrics every untraced run reports, in BENCHMARK.json
   order. *)
let end_to_end_names =
  [ "setup_s"; "qps_norm"; "latency_norm_p50_ms"; "latency_norm_tail_ms"; "sim_ms_total";
    "heap_peak_mb" ]

(* Every per-layer metric with its unit, in BENCHMARK.json order; a
   layer a workload does not exercise reads 0. *)
let per_layer =
  [ ("tpcd.generate_ms", "ms"); ("sql.bind_ms", "ms"); ("opt.optimize_ms", "ms");
    ("opt.plans_enumerated", "count"); ("opt.alloc_mwords", "Mwords");
    ("opt.eq1_ratio", "ratio"); ("core.scia_ms", "ms"); ("core.collectors", "count");
    ("dispatch.start_p50_ms", "ms"); ("dispatch.start_tail_ms", "ms");
    ("dispatch.step_p50_ms", "ms"); ("dispatch.step_tail_ms", "ms");
    ("dispatch.steps", "count"); ("core.replans", "count"); ("core.switches", "count");
    ("core.switch_ratio", "ratio"); ("core.plan_cache_hit_ratio", "ratio");
    ("exec.alloc_mwords_per_query", "Mwords"); ("exec.minor_gcs_per_query", "count");
    ("exec.worker_skew", "ratio"); ("exec.rf_drop_frac", "ratio");
    ("exec.collector_sim_ms", "sim_ms"); ("analysis.verify_ms", "ms");
    ("analysis.bounds_ms", "ms"); ("wlm.step_p50_ms", "ms"); ("wlm.step_tail_ms", "ms");
    ("wlm.queue_depth", "count"); ("wlm.admit_wait_sim_ms", "sim_ms");
    ("wlm.broker_waits", "count"); ("wlm.interactive_p50_sim_ms", "sim_ms");
    ("wlm.interactive_tail_sim_ms", "sim_ms"); ("wlm.batch_tail_sim_ms", "sim_ms");
    ("wlm.deadline_miss_frac", "ratio"); ("wlm.interactive_max_rate", "1/sim_s");
    ("storage.insert_ms", "ms"); ("storage.delete_ms", "ms"); ("catalog.analyze_ms", "ms");
    ("storage.write_p50_ms", "ms"); ("storage.write_tail_ms", "ms");
    ("obs.trace_overhead_pct", "%") ]

let per_layer_names = List.map fst per_layer

(* A per-layer metric, with its unit from the table. *)
let l name value = m name value (List.assoc name per_layer)

(* Per-layer metrics every closed-loop workload derives from its traced
   samples and probes. *)
let layer_metrics ~tr ~samples ~probes ~generate_ms =
  let rs = reports samples in
  let nq = float_of_int (max 1 (List.length rs)) in
  let med name = Stat.median (Spans.durations tr name) in
  let tail name = Stat.tail (Spans.durations tr name) in
  let steps = Spans.durations tr "dispatch.step" in
  let n_starts = List.length (Spans.durations tr "dispatch.start") in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let replans_n = total (fun r -> r.replans) and switches_n = total (fun r -> r.switches) in
  let pmean f = Stat.mean (List.map f probes) in
  let sel = selects samples in
  [ l "tpcd.generate_ms" generate_ms;
    l "sql.bind_ms" (med "sql.bind");
    l "opt.optimize_ms" (med "opt.optimize");
    l "opt.plans_enumerated" (pmean (fun p -> float_of_int p.plans));
    l "opt.alloc_mwords" (pmean (fun p -> p.opt_words /. 1e6));
    l "opt.eq1_ratio" (Stat.median (List.map (fun p -> p.eq1_ratio) probes));
    l "core.scia_ms" (med "core.scia");
    l "core.collectors" (pmean (fun p -> float_of_int p.collectors));
    l "dispatch.start_p50_ms" (med "dispatch.start");
    l "dispatch.start_tail_ms" (tail "dispatch.start");
    l "dispatch.step_p50_ms" (Stat.median steps);
    l "dispatch.step_tail_ms" (Stat.tail steps);
    l "dispatch.steps"
      (Stat.ratio (float_of_int (List.length steps)) (float_of_int n_starts));
    l "core.replans" (replans_n /. nq);
    l "core.switches" (switches_n /. nq);
    l "core.switch_ratio" (Stat.ratio switches_n replans_n);
    l "exec.alloc_mwords_per_query"
      (Stat.mean (List.map (fun s -> s.minor_words /. 1e6) sel));
    l "exec.minor_gcs_per_query"
      (Stat.mean (List.map (fun s -> float_of_int s.minor_gcs) sel));
    l "exec.worker_skew" (Stat.mean (List.concat_map (fun r -> r.skews) rs));
    l "exec.rf_drop_frac"
      (Stat.ratio (total (fun r -> r.rf_dropped)) (total (fun r -> r.rf_probed)));
    l "exec.collector_sim_ms"
      (Stat.mean (List.map (fun r -> r.collector_ms) rs));
    l "analysis.verify_ms" (med "analysis.verify");
    l "analysis.bounds_ms" (med "analysis.bounds") ]

(* Fill in the per-layer metrics a workload did not produce with 0, in
   the canonical order. *)
let complete_layers given =
  List.map
    (fun name ->
       match List.find_opt (fun x -> x.name = name) given with
       | Some x -> x
       | None -> l name 0.0)
    per_layer_names

(* Tracing overhead: wall time of the traced statements against the
   untraced ones, over the prefix both passes ran. *)
let overhead_pct ~untraced ~traced =
  let k = min (List.length untraced) (List.length traced) in
  let prefix l = List.filteri (fun i _ -> i < k) l in
  let total l = Stat.sum (List.map (fun s -> s.wall_ms) (prefix l)) in
  100.0 *. (Stat.ratio (total traced) (total untraced) -. 1.0)

(* --- closed-loop workloads ------------------------------------------------ *)

type closed = {
  c_sf : float;
  c_engine : Catalog.t -> Engine.t;
  c_reads_only : bool;
      (* no writes and no plan cache: one database state throughout, and
         the traced run may split run_sql into its steps *)
  c_stream : Gen.pools -> Catalog.t -> seed:int -> (int -> Gen.stmt);
  c_cycle : int;
  c_sim_stmts : int;  (* the simulated metrics sum over this prefix *)
  c_min_stmts : int;  (* the untraced loop never stops before this *)
}

let list_stream stmts =
  let a = Array.of_list stmts in
  fun i -> a.(i mod Array.length a)

let adhoc_joins =
  let templates = [ "Q3"; "Q5"; "Q7"; "Q8"; "Q10" ] in
  { c_sf = 0.002;
    c_engine = (fun c -> Engine.create c);
    c_reads_only = true;
    c_stream = (fun p _ ~seed -> list_stream (Gen.query_list p ~seed ~templates ~cycles:4));
    c_cycle = List.length templates;
    c_sim_stmts = 4 * List.length templates;
    (* ten Q8s at least, so the tail rank always falls among them; ten
       cycles took 7 s on a two-vCPU VM (13.3 s while it ran 1.8x
       slower), so BENCHMARK.json's 15 s window, not this minimum,
       decides where the loop stops *)
    c_min_stmts = 10 * List.length templates }

let scan_agg =
  let templates = [ "Q1"; "Q6"; "Q3"; "Q10" ] in
  { c_sf = 0.02;
    c_engine = (fun c -> Engine.create ~runtime_filters:true ~parallel:2 c);
    c_reads_only = true;
    c_stream = (fun p _ ~seed -> list_stream (Gen.query_list p ~seed ~templates ~cycles:4));
    c_cycle = List.length templates;
    c_sim_stmts = 4 * List.length templates;
    c_min_stmts = 12 * List.length templates }

let reporting_dml =
  { c_sf = 0.005;
    c_engine = (fun c -> Engine.create ~plan_cache:true c);
    c_reads_only = false;
    c_stream =
      (fun p catalog ~seed ->
         let next = Gen.reporting_stream p (Gen.dml_pools catalog ~seed) ~seed in
         fun _ -> next ());
    c_cycle = 1;
    c_sim_stmts = 80;
    c_min_stmts = 80 }

let run_closed w ~seed ~seconds ~trace =
  let prep = prepare ~sf:w.c_sf ~make:w.c_engine ~discard:Engine.shutdown in
  let catalog = prep.catalog and engine = prep.built in
  let pools = Gen.pools catalog in
  let stream () = w.c_stream pools catalog ~seed in
  let loop ~seconds ~min_stmts engine exec =
    closed_loop ~seconds ~min_stmts ~cycle:w.c_cycle ~next:(stream ()) (exec engine)
  in
  let oracle_check runs =
    (* reference rows, computed after every timed window *)
    if w.c_reads_only then begin
      let texts = List.concat_map (fun s -> List.map (fun x -> x.stmt.Gen.sql) (selects s)) runs in
      let memo = Oracle.of_texts catalog texts in
      List.fold_left
        (fun bad s -> bad + check_rows ~expected:(fun x -> Hashtbl.find memo x.stmt.Gen.sql) s)
        0 runs
    end
    else begin
      let longest =
        List.fold_left (fun a s -> if List.length s > List.length a then s else a) [] runs
      in
      let fresh = experiment_catalog ~sf:w.c_sf in
      let expected = Array.of_list (Oracle.replay fresh (List.map (fun x -> x.stmt) longest)) in
      List.fold_left
        (fun bad s ->
           let sel = selects s in
           let index = Hashtbl.create 64 in
           List.iteri (fun k x -> Hashtbl.replace index x.idx k) sel;
           bad + check_rows ~expected:(fun x -> expected.(Hashtbl.find index x.idx)) sel)
        0 runs
    end
  in
  let hit_ratio e =
    match Engine.plan_cache_stats e with
    | Some (h, mi, _) -> Stat.ratio (float_of_int h) (float_of_int (h + mi))
    | None -> 0.0
  in
  if not trace then begin
    let samples, wall_s = loop ~seconds ~min_stmts:w.c_min_stmts engine exec_plain in
    (* read before the oracle runs: the peak is a high-water mark *)
    let heap = heap_peak_mb () in
    let failed = errors samples + oracle_check [ samples ] in
    print_errors samples;
    let sel = selects samples in
    let lat = List.map (fun s -> s.norm_ms) sel in
    let total f = Stat.sum (List.map f samples) /. 1000.0 in
    let norm_s = total (fun s -> s.norm_ms) and cpu_s = total (fun s -> s.cpu_ms) in
    let sim =
      Stat.sum
        (List.filter_map
           (fun s ->
              match s.outcome with
              | Rows r when s.idx < w.c_sim_stmts -> Some r.elapsed_ms
              | _ -> None)
           samples)
    in
    let n = List.length samples in
    let wr = writes samples in
    let metrics =
      [ m "setup_s" prep.setup_s "s";
        m "qps_norm" (float_of_int n /. norm_s) "1/s";
        m "latency_norm_p50_ms" (Stat.median lat) "ms";
        m "latency_norm_tail_ms" (Stat.tail lat) "ms";
        m "sim_ms_total" sim "sim_ms";
        m "heap_peak_mb" heap "MB" ]
    in
    let report =
      [ ("reference_job", Calib.summary ());
        ("setup_s",
         Printf.sprintf "%.4f s (CPU at the reference speed, median of %d)" prep.setup_s
           (setup_reps ~sf:w.c_sf));
        ("qps_norm",
         Printf.sprintf "%.3f 1/s (%d statements in %.2f CPU s at the reference speed)"
           (float_of_int n /. norm_s) n norm_s);
        ("qps_cpu",
         Printf.sprintf "%.3f 1/s (%d statements in %.2f CPU s)" (float_of_int n /. cpu_s) n cpu_s);
        ("qps",
         Printf.sprintf "%.3f 1/s (%d statements in %.2f wall s; the window, reference job included, %.2f s)"
           (float_of_int n /. total (fun s -> s.wall_ms)) n (total (fun s -> s.wall_ms)) wall_s) ]
      @ latency_lines ~name:"latency" sel
      @ (if wr = [] then [ ("write_p50_ms", na); ("write_tail_ms", na) ]
         else latency_lines ~name:"write" wr)
      @ [ ("sim_ms_total",
           Printf.sprintf "%.3f sim_ms (first %d statements)" sim w.c_sim_stmts);
          ("interactive_p50_sim_ms", na); ("interactive_tail_sim_ms", na);
          ("batch_tail_sim_ms", na); ("deadline_miss_frac", na);
          ("interactive_max_rate", na);
          ("failed_frac",
           Printf.sprintf "%.4f ratio (%d of %d)" (Stat.ratio (float_of_int failed) (float_of_int n)) failed n);
          ("heap_peak_mb", Printf.sprintf "%.3f MB" heap);
          ("plan_cache_hit_ratio", Printf.sprintf "%.4f" (hit_ratio engine)) ]
      @ per_label_lines samples
    in
    Engine.shutdown engine;
    { attempted = n; failed; metrics; report;
      statements = List.map (fun s -> ("", s.stmt)) samples; spans = None }
  end
  else begin
    (* half the time untraced, half traced, from the same first
       statement; a workload that writes gets its own catalog per half *)
    let half = seconds /. 2.0 in
    let untraced_engine, traced_engine =
      if w.c_reads_only then (engine, engine)
      else (w.c_engine (experiment_catalog ~sf:w.c_sf), engine)
    in
    let plain, _ = loop ~seconds:half ~min_stmts:w.c_cycle untraced_engine exec_plain in
    let tr = Spans.create () in
    let misses () =
      match Engine.plan_cache_stats traced_engine with Some (_, mi, _) -> mi | None -> 0
    in
    (* Probe each text once per optimization the engine performed: with
       a plan cache, right after each miss (the database state moves on);
       without one, every distinct text once the loop is done. *)
    let probes = ref [] in
    let exec e i s =
      if w.c_reads_only then exec_stepwise tr e i s
      else begin
        let misses0 = misses () in
        let sample = exec_engine_traced tr e i s in
        if s.Gen.kind = Gen.Select && misses () > misses0 then
          probes := probe tr e ~qid:i s.Gen.sql :: !probes;
        sample
      end
    in
    let traced, _ = loop ~seconds:half ~min_stmts:w.c_cycle traced_engine exec in
    if w.c_reads_only then begin
      let seen = Hashtbl.create 32 in
      List.iter
        (fun s ->
           if not (Hashtbl.mem seen s.stmt.Gen.sql) then begin
             Hashtbl.replace seen s.stmt.Gen.sql ();
             probes := probe tr traced_engine ~qid:s.idx s.stmt.Gen.sql :: !probes
           end)
        traced
    end;
    let failed =
      errors plain + errors traced
      + oracle_check [ plain; traced ]
    in
    print_errors plain;
    print_errors traced;
    let wr = writes traced in
    let dur name = Stat.median (Spans.durations tr name) in
    let layers =
      layer_metrics ~tr ~samples:traced ~probes:!probes ~generate_ms:prep.generate_ms
      @ [ l "core.plan_cache_hit_ratio" (hit_ratio traced_engine);
          l "storage.insert_ms" (dur "storage.insert");
          l "storage.delete_ms" (dur "storage.delete");
          l "catalog.analyze_ms" (dur "catalog.analyze");
          l "storage.write_p50_ms" (Stat.median (List.map (fun s -> s.wall_ms) wr));
          l "storage.write_tail_ms" (Stat.tail (List.map (fun s -> s.wall_ms) wr));
          l "obs.trace_overhead_pct" (overhead_pct ~untraced:plain ~traced) ]
    in
    Engine.shutdown untraced_engine;
    Engine.shutdown traced_engine;
    let metrics = complete_layers layers in
    { attempted = List.length plain + List.length traced; failed; metrics;
      report = List.map (fun x -> (x.name, Printf.sprintf "%.6g %s" x.value x.unit_)) metrics;
      statements = List.map (fun s -> ("", s.stmt)) traced; spans = Some tr }
  end

(* --- the open-loop service workload -------------------------------------- *)

let service_sf = 0.002
let arrivals_per_episode = 96

(* The untraced run serves at least this many episodes, and its latency
   metrics pool exactly these: the same statements on every machine,
   however many more episodes the window then holds. *)
let latency_episodes = 4
let base_rate_per_s = 0.6
let rate_multiples = [ 1.0; 1.5; 2.0; 3.0; 4.0 ]

let service_options =
  { Service.default_options with
    Service.max_concurrency = 3;
    policy = Service.Slo_aware;
    (* the service stamps submit and finish with the process CPU clock *)
    wall_clock = Some cpu }

let service_engine c = Engine.create ~parallel:2 ~verify_plans:Verifier.Pre c

(* What the benchmark keeps of one statement served in an episode. *)
type served = {
  tenant : string;
  label : string;
  sql : string;
  arrival_ms : float;
  admit_ms : float;
  finish_ms : float;
  cpu_ms : float;            (* submit to finish, process CPU time *)
  result : summary option;   (* None unless the statement completed *)
}

type episode = {
  served : served list;      (* submission order *)
  deadline_misses : int;
  broker_waits : int;
  wall_s : float;
  cpu_s : float;
  ref_ms : float;            (* mean reference job time over the episode *)
  steps_ms : float list;
  queue_depths : int list;
  queue_met : float * float;
      (* mean queue depth met by the first and by the last third of the
         arrivals *)
}

(* One open-loop episode on the simulated timeline: each arrival is
   submitted once the service's clock has reached its arrival time (or
   the service is idle), and the service is stepped in between.  The
   reference job runs at the start, every [Calib.every] CPU seconds
   between steps, and at the end; the episode's CPU times are scaled by
   the mean of those runs. *)
let episode ?tr engine (arrivals : Gen.arrival list) =
  let span name f =
    match tr with Some tr -> Spans.with_span tr name ~qid:(-1) f | None -> f ()
  in
  let svc = Service.create ~options:service_options engine in
  Service.add_tenant svc ~slo:Session.Interactive "web";
  Service.add_tenant svc ~slo:Session.Batch "etl";
  let sessions =
    [ ("web", Service.open_session svc ~tenant:"web");
      ("etl", Service.open_session svc ~tenant:"etl") ]
  in
  let steps = ref [] and depths = ref [] and at_submit = ref [] in
  let submit (a : Gen.arrival) =
    span "wlm.submit" (fun () ->
        ignore
          (Session.submit ~label:a.Gen.stmt.Gen.label ~arrival_ms:a.Gen.at_ms
             (List.assoc a.Gen.tenant sessions) a.Gen.stmt.Gen.sql));
    at_submit := Service.queued_count svc :: !at_submit
  in
  let step () =
    let t0 = now () in
    let progressed = span "wlm.step" (fun () -> Service.step svc) in
    if progressed then begin
      steps := ms_since t0 :: !steps;
      depths := Service.queued_count svc :: !depths
    end;
    progressed
  in
  let calib = Calib.mark () in
  ignore (Calib.run ());
  let t0 = now () and c0 = cpu () in
  let rec go pending =
    Calib.tick ();
    match pending with
    | [] -> if step () then go []
    | a :: rest as pending ->
      if Service.idle svc || a.Gen.at_ms <= Service.now_ms svc then (submit a; go rest)
      else if step () then go pending
      else (submit a; go rest)
  in
  span "bench.episode" (fun () -> go arrivals);
  let wall_s = now () -. t0 and cpu_s = cpu () -. c0 in
  ignore (Calib.run ());
  let depths_at = Array.of_list (List.rev !at_submit) in
  let n = Array.length depths_at in
  let mean_over lo hi =
    Stat.mean (List.init (hi - lo) (fun i -> float_of_int depths_at.(lo + i)))
  in
  let rep = Service.report svc in
  let tenants f = List.fold_left (fun a t -> a + f t) 0 rep.Service.tenants in
  { served =
      List.map
        (fun (s : Session.stmt) ->
           { tenant = s.Session.stmt_tenant; label = s.Session.stmt_label;
             sql = s.Session.stmt_sql; arrival_ms = s.Session.stmt_arrival_ms;
             admit_ms = s.Session.stmt_admit_ms; finish_ms = s.Session.stmt_finish_ms;
             cpu_ms = 1000.0 *. (s.Session.stmt_wall_finish -. s.Session.stmt_wall_submit);
             result =
               (match s.Session.stmt_status with
                | Session.Done r -> Some (summarize r)
                | _ -> None) })
        rep.Service.statements;
    deadline_misses = tenants (fun t -> t.Service.tns_deadline_miss);
    broker_waits = tenants (fun t -> t.Service.tns_broker_waits);
    wall_s; cpu_s; ref_ms = Calib.mean_ms calib; steps_ms = List.rev !steps;
    queue_depths = List.rev !depths;
    queue_met = (mean_over 0 (n / 3), mean_over (n - (n / 3)) n) }

let completed ep = List.filter (fun x -> x.result <> None) ep.served

let sim_latencies ep tenant =
  List.filter_map
    (fun x -> if x.tenant = tenant then Some (x.finish_ms -. x.arrival_ms) else None)
    (completed ep)

let not_done ep = List.length ep.served - List.length (completed ep)

(* A queue that grows: the last third of the arrivals met, on average, a
   backlog deeper by more than a full set of slots than the first third
   met.  Below the service's capacity the two stay within a slot or two
   of each other; past it the backlog climbs through the episode. *)
let growing_queue ep =
  let first, last = ep.queue_met in
  last > first +. float_of_int service_options.Service.max_concurrency

let meets_slo ep =
  Stat.tail (sim_latencies ep "web") <= service_options.Service.interactive.Service.target_ms
  && not_done ep = 0 && not (growing_queue ep)

(* How the traffic met the service in one episode, on the simulated
   timeline. *)
let traffic ep =
  Printf.sprintf
    "web tail %.0f sim_ms, not done %d, queue met %.2f -> %.2f%s, \
     mean queue %.2f, admit wait %.0f sim_ms, broker waits %d"
    (Stat.tail (sim_latencies ep "web")) (not_done ep) (fst ep.queue_met)
    (snd ep.queue_met)
    (if growing_queue ep then " (growing)" else "")
    (Stat.mean (List.map float_of_int ep.queue_depths))
    (Stat.mean (List.map (fun x -> x.admit_ms -. x.arrival_ms) (completed ep)))
    ep.broker_waits

(* The highest fixed multiple of the base rate at which the interactive
   tail meets its SLO target without a growing queue; 0 if none does.
   Arrivals are the same statements, compressed in time.  The sweep stops
   at the first multiple that misses; it returns the rate and one report
   line per multiple it ran. *)
let max_rate engine arrivals first =
  let rec sweep best lines = function
    | [] -> (best, List.rev lines)
    | k :: rest ->
      let ep =
        if k = 1.0 then first
        else
          episode engine
            (List.map (fun (a : Gen.arrival) -> { a with Gen.at_ms = a.Gen.at_ms /. k }) arrivals)
      in
      let ok = meets_slo ep in
      let line =
        ( Printf.sprintf "  rate %gx" k,
          Printf.sprintf "%s: %s" (if ok then "meets" else "misses") (traffic ep) )
      in
      if ok then sweep (k *. base_rate_per_s) (line :: lines) rest
      else (best, List.rev (line :: lines))
  in
  sweep 0.0 [] rate_multiples

let run_service ~seed ~seconds ~trace =
  let prep =
    prepare ~sf:service_sf
      ~make:(fun c ->
          let e = service_engine c in
          ignore (Service.create ~options:service_options e);
          e)
      ~discard:Engine.shutdown
  in
  let catalog = prep.catalog and engine = prep.built in
  let pools = Gen.pools catalog in
  let texts = Gen.service_texts pools ~seed in
  (* every episode of a run brings fresh arrivals; episode 0 carries the
     simulated metrics and the rate sweep *)
  let arrivals_of episode =
    Gen.arrivals texts ~seed ~episode ~n:arrivals_per_episode ~rate_per_s:base_rate_per_s
  in
  let arrivals = arrivals_of 0 in
  let episodes ?tr ?(min_episodes = 1) ~seconds () =
    let t0 = now () in
    let rec go acc =
      let acc = episode ?tr engine (arrivals_of (List.length acc)) :: acc in
      if List.length acc >= min_episodes && now () -. t0 >= seconds then List.rev acc
      else go acc
    in
    go []
  in
  let oracle =
    lazy
      (Oracle.of_texts catalog
         (List.concat_map (fun (_, v) -> List.map (fun s -> s.Gen.sql) (Array.to_list v)) texts))
  in
  let check eps =
    let memo = Lazy.force oracle in
    List.fold_left
      (fun bad ep ->
         List.fold_left
           (fun bad x ->
              match x.result with
              | Some r when Oracle.agrees ~expected:(Hashtbl.find memo x.sql) ~got:(Oracle.canon r.rows) ->
                bad
              | Some _ ->
                Printf.eprintf "perfbench: row mismatch on %s/%s\n%!" x.tenant x.label;
                bad + 1
              | None -> bad)
           (bad + not_done ep) ep.served)
      0 eps
  in
  let stmts = List.map (fun (a : Gen.arrival) -> (Printf.sprintf "%s at %.3f sim ms" a.Gen.tenant a.Gen.at_ms, a.Gen.stmt)) arrivals in
  (* submit-to-finish CPU times, scaled per episode when [norm] *)
  let latencies ~norm eps =
    List.concat_map
      (fun ep ->
         let k = if norm then Calib.scale ep.ref_ms else 1.0 in
         List.map (fun x -> k *. x.cpu_ms) (completed ep))
      eps
  in
  let service_layers first =
    let web = sim_latencies first "web" in
    let submitted = List.length first.served in
    [ l "wlm.admit_wait_sim_ms"
        (Stat.mean (List.map (fun x -> x.admit_ms -. x.arrival_ms) (completed first)));
      l "wlm.broker_waits" (float_of_int first.broker_waits);
      l "wlm.interactive_p50_sim_ms" (Stat.median web);
      l "wlm.interactive_tail_sim_ms" (Stat.tail web);
      l "wlm.batch_tail_sim_ms" (Stat.tail (sim_latencies first "etl"));
      l "wlm.deadline_miss_frac"
        (Stat.ratio (float_of_int first.deadline_misses) (float_of_int submitted)) ]
  in
  if not trace then begin
    let eps = episodes ~min_episodes:latency_episodes ~seconds () in
    let heap = heap_peak_mb () in
    let wall_s = Stat.sum (List.map (fun ep -> ep.wall_s) eps) in
    let cpu_s = Stat.sum (List.map (fun ep -> ep.cpu_s) eps) in
    let norm_s = Stat.sum (List.map (fun ep -> ep.cpu_s *. Calib.scale ep.ref_ms) eps) in
    let first = List.hd eps in
    let failed = check eps in
    let attempted = List.fold_left (fun a ep -> a + List.length ep.served) 0 eps in
    let completed = List.fold_left (fun a ep -> a + List.length (completed ep)) 0 eps in
    let pooled = List.filteri (fun i _ -> i < latency_episodes) eps in
    let lat = latencies ~norm:true pooled and lat_cpu = latencies ~norm:false pooled in
    (* the tail each episode's statements met, median over the episodes,
       so that one bursty arrival pattern does not set it alone *)
    let tail ~norm = Stat.median (List.map (fun ep -> Stat.tail (latencies ~norm [ ep ])) pooled) in
    let sim =
      Stat.sum (List.filter_map (fun x -> Option.map (fun r -> r.elapsed_ms) x.result) first.served)
    in
    let layers = service_layers first in
    let get name = (List.find (fun x -> x.name = name) layers).value in
    let metrics =
      [ m "setup_s" prep.setup_s "s";
        m "qps_norm" (float_of_int completed /. norm_s) "1/s";
        m "latency_norm_p50_ms" (Stat.median lat) "ms";
        m "latency_norm_tail_ms" (tail ~norm:true) "ms";
        m "sim_ms_total" sim "sim_ms";
        m "heap_peak_mb" heap "MB" ]
    in
    let report =
      [ ("reference_job", Calib.summary ());
        ("setup_s",
         Printf.sprintf "%.4f s (CPU at the reference speed, median of %d)" prep.setup_s
           (setup_reps ~sf:service_sf));
        ("qps_norm",
         Printf.sprintf "%.3f 1/s (%d statements in %d episodes, %.2f CPU s at the reference speed)"
           (float_of_int completed /. norm_s) completed (List.length eps) norm_s);
        ("qps_cpu", Printf.sprintf "%.3f 1/s (%.2f CPU s)" (float_of_int completed /. cpu_s) cpu_s);
        ("qps",
         Printf.sprintf "%.3f 1/s (%.2f wall s, reference job included)"
           (float_of_int completed /. wall_s) wall_s);
        ("latency_norm_p50_ms",
         Printf.sprintf "%s (submit to finish, every tenant, first %d episodes)"
           (fmt_ms (Stat.median lat)) latency_episodes);
        ("latency_norm_tail_ms",
         Printf.sprintf "%s (10th largest of each episode's n=%d, median over %d episodes)"
           (fmt_ms (tail ~norm:true)) arrivals_per_episode latency_episodes);
        ("latency_cpu_p50_ms", fmt_ms (Stat.median lat_cpu));
        ("latency_cpu_tail_ms", fmt_ms (tail ~norm:false));
        ("write_p50_ms", na); ("write_tail_ms", na);
        ("sim_ms_total", Printf.sprintf "%.3f sim_ms (one episode, %d arrivals)" sim arrivals_per_episode);
        ("interactive_p50_sim_ms", Printf.sprintf "%.3f sim_ms" (get "wlm.interactive_p50_sim_ms"));
        ("interactive_tail_sim_ms",
         Printf.sprintf "%.3f sim_ms (10th largest of n=%d; target %.0f)"
           (get "wlm.interactive_tail_sim_ms") (List.length (sim_latencies first "web"))
           service_options.Service.interactive.Service.target_ms);
        ("batch_tail_sim_ms", Printf.sprintf "%.3f sim_ms" (get "wlm.batch_tail_sim_ms"));
        ("deadline_miss_frac", Printf.sprintf "%.4f ratio" (get "wlm.deadline_miss_frac"));
        (* the sweep replays episode 0 several times over, so only the
           traced run makes it *)
        ("interactive_max_rate", "see wlm.interactive_max_rate in the traced run (--trace 1)");
        ("failed_frac",
         Printf.sprintf "%.4f ratio (%d of %d)" (Stat.ratio (float_of_int failed) (float_of_int attempted)) failed attempted);
        ("heap_peak_mb", Printf.sprintf "%.3f MB" heap) ]
    in
    Engine.shutdown engine;
    { attempted; failed; metrics; report; statements = stmts; spans = None }
  end
  else begin
    let half = seconds /. 2.0 in
    let plain = episodes ~seconds:half () in
    let tr = Spans.create () in
    let probes =
      List.mapi
        (fun i s -> probe tr engine ~qid:i s.Gen.sql)
        (List.concat_map (fun (_, v) -> Array.to_list v) texts)
    in
    let w0, g0 = gc_marks () in
    let traced = episodes ~tr ~seconds:half () in
    let w1, g1 = gc_marks () in
    let first = List.hd traced in
    let rate, sweep = max_rate engine arrivals (List.hd plain) in
    let failed = check plain + check traced in
    let attempted =
      List.fold_left (fun a ep -> a + List.length ep.served) 0 (plain @ traced)
    in
    let samples =
      List.filter_map
        (fun x ->
           Option.map
             (fun r ->
                { idx = 0; stmt = { Gen.label = x.label; kind = Gen.Select; sql = x.sql };
                  wall_ms = x.cpu_ms; cpu_ms = x.cpu_ms; ref_ms = 0.0; norm_ms = 0.0; outcome = Rows r; minor_words = 0.0; minor_gcs = 0 })
             x.result)
        first.served
    in
    let steps = List.concat_map (fun ep -> ep.steps_ms) traced in
    let completed =
      float_of_int (List.fold_left (fun a ep -> a + List.length (completed ep)) 0 traced)
    in
    (* both halves run episodes 0, 1, ...: compare the ones both ran *)
    let k = min (List.length plain) (List.length traced) in
    let wall eps = Stat.sum (List.filteri (fun i _ -> i < k) (List.map (fun ep -> ep.wall_s) eps)) in
    let overhead = 100.0 *. (Stat.ratio (wall traced) (wall plain) -. 1.0) in
    let layers =
      List.filter
        (fun x -> not (List.mem x.name [ "exec.alloc_mwords_per_query"; "exec.minor_gcs_per_query" ]))
        (layer_metrics ~tr ~samples ~probes ~generate_ms:prep.generate_ms)
      @ service_layers first
      @ [ (* allocation and minor collections over whole traced episodes,
             per completed statement *)
          l "exec.alloc_mwords_per_query" (Stat.ratio ((w1 -. w0) /. 1e6) completed);
          l "exec.minor_gcs_per_query" (Stat.ratio (float_of_int (g1 - g0)) completed);
          l "wlm.step_p50_ms" (Stat.median steps);
          l "wlm.step_tail_ms" (Stat.tail steps);
          l "wlm.queue_depth"
            (Stat.mean (List.concat_map (fun ep -> List.map float_of_int ep.queue_depths) traced));
          l "wlm.interactive_max_rate" rate;
          l "obs.trace_overhead_pct" overhead ]
    in
    Engine.shutdown engine;
    let metrics = complete_layers layers in
    { attempted; failed; metrics;
      report =
        List.map (fun x -> (x.name, Printf.sprintf "%.6g %s" x.value x.unit_)) metrics
        @ [ ( "interactive_max_rate",
              Printf.sprintf "base %.2f 1/sim_s, multiples %s" base_rate_per_s
                (String.concat "," (List.map (Printf.sprintf "%g") rate_multiples)) ) ]
        @ sweep;
      statements = stmts; spans = Some tr }
  end

let names = [ "adhoc-joins"; "scan-agg"; "service-mixed"; "reporting-dml" ]

let run ~workload ~seed ~seconds ~trace =
  match workload with
  | "adhoc-joins" -> run_closed adhoc_joins ~seed ~seconds ~trace
  | "scan-agg" -> run_closed scan_agg ~seed ~seconds ~trace
  | "reporting-dml" -> run_closed reporting_dml ~seed ~seconds ~trace
  | "service-mixed" -> run_service ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)
