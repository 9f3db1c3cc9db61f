(* Progress/ETA estimation: the per-statement estimator must be pure
   observation (attached runs bit-identical to unattached, at every pool
   size), monotone (percent and eta_lo never decrease, eta_hi >= eta_lo)
   and land at exactly 100% on completion — across every benchmark
   query, every reopt mode, plan switches and cancellation. *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload
module Progress = Mqr_obs.Progress

(* max_dop pinned so the optimizer picks the same plan degrees at every
   pool size: simulated time then depends only on the plan, and pools
   1/4 must agree bit-for-bit *)
let engine ?(parallel = 1) () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  Engine.create ~budget_pages:64 ~pool_pages:512 ~parallel
    ~opt_options:
      { Mqr_opt.Optimizer.default_options with Mqr_opt.Optimizer.max_dop = 2 }
    catalog

let sql name = (Queries.find name).Queries.sql

let all_modes =
  [ Dispatcher.Off; Dispatcher.Memory_only; Dispatcher.Plan_only;
    Dispatcher.Full ]

(* --- estimator unit behaviour --- *)

let sample_percent (s : Progress.sample) = s.Progress.percent

let test_percent_clamped_monotone () =
  let p = Progress.create () in
  let u ~now ~est =
    Progress.update p ~label:Progress.Decision ~now_ms:now
      ~remaining_est_ms:est ~remaining_lo_ms:est ~remaining_hi_ms:est
  in
  let s1 = u ~now:50.0 ~est:50.0 in
  Alcotest.(check (float 1e-9)) "50/100 = 50%" 50.0 (sample_percent s1);
  (* a plan switch can raise the remainder estimate: raw percent would
     regress to 25%, the clamp must hold the line *)
  let s2 = u ~now:50.0 ~est:150.0 in
  Alcotest.(check (float 1e-9)) "clamped at previous" 50.0 (sample_percent s2);
  let s3 = u ~now:150.0 ~est:50.0 in
  Alcotest.(check (float 1e-9)) "resumes once truth catches up" 75.0
    (sample_percent s3);
  Alcotest.(check bool) "stream monotone" true (Progress.monotone p)

let test_eta_bounds () =
  let p = Progress.create () in
  let u ~now ~lo ~hi =
    Progress.update p ~label:Progress.Decision ~now_ms:now
      ~remaining_est_ms:((lo +. hi) /. 2.0) ~remaining_lo_ms:lo
      ~remaining_hi_ms:hi
  in
  let s1 = u ~now:10.0 ~lo:90.0 ~hi:190.0 in
  Alcotest.(check (float 1e-9)) "eta_lo = now + rem_lo" 100.0
    s1.Progress.eta_lo_ms;
  Alcotest.(check (float 1e-9)) "eta_hi = now + rem_hi" 200.0
    s1.Progress.eta_hi_ms;
  (* a looser lower bound later may not drag eta_lo backwards... *)
  let s2 = u ~now:20.0 ~lo:10.0 ~hi:500.0 in
  Alcotest.(check (float 1e-9)) "eta_lo monotone" 100.0 s2.Progress.eta_lo_ms;
  (* ...but eta_hi may legitimately rise (plan switch raised the
     provable worst case) *)
  Alcotest.(check (float 1e-9)) "eta_hi may rise" 520.0 s2.Progress.eta_hi_ms;
  let s3 = u ~now:30.0 ~lo:300.0 ~hi:100.0 in
  Alcotest.(check bool) "inverted input interval is repaired" true
    (s3.Progress.eta_hi_ms >= s3.Progress.eta_lo_ms);
  Alcotest.(check bool) "stream monotone" true (Progress.monotone p)

let test_finish_idempotent () =
  let p = Progress.create () in
  ignore
    (Progress.update p ~label:Progress.Start ~now_ms:0.0
       ~remaining_est_ms:100.0 ~remaining_lo_ms:80.0 ~remaining_hi_ms:120.0);
  let f1 = Progress.finish p ~now_ms:90.0 in
  Alcotest.(check (float 1e-9)) "finish is 100%" 100.0 f1.Progress.percent;
  Alcotest.(check (float 1e-9)) "eta collapses lo" f1.Progress.eta_lo_ms
    f1.Progress.eta_hi_ms;
  Alcotest.(check bool) "finished" true (Progress.finished p);
  let n = List.length (Progress.samples p) in
  let f2 = Progress.finish p ~now_ms:95.0 in
  Alcotest.(check int) "idempotent: no new sample"
    n (List.length (Progress.samples p));
  Alcotest.(check (float 1e-9)) "idempotent: same sample" f1.Progress.ts_ms
    f2.Progress.ts_ms

(* --- the full matrix: every query x every mode x pools 1/4 --- *)

let check_stream name (p : Progress.t) =
  Alcotest.(check bool) (name ^ ": monotone") true (Progress.monotone p);
  Alcotest.(check bool) (name ^ ": finished") true (Progress.finished p);
  match Progress.latest p with
  | None -> Alcotest.failf "%s: no progress samples" name
  | Some last ->
    Alcotest.(check (float 1e-9)) (name ^ ": final percent") 100.0
      last.Progress.percent;
    Alcotest.(check bool) (name ^ ": final label is finish") true
      (last.Progress.label = Progress.Finish)

let test_matrix () =
  let base = engine () in
  let p1 = engine () in
  let p4 = engine ~parallel:4 () in
  let switch_seen = ref false in
  List.iter
    (fun mode ->
       List.iter
         (fun (q : Queries.query) ->
            let name =
              Printf.sprintf "%s/%s" q.Queries.name
                (Dispatcher.mode_to_string mode)
            in
            let off = Engine.run_sql base ~mode q.Queries.sql in
            List.iter
              (fun (pool, eng) ->
                 let name = Printf.sprintf "%s/pool=%d" name pool in
                 let p = Progress.create () in
                 let on = Engine.run_sql eng ~mode ~progress:p q.Queries.sql in
                 Alcotest.(check (float 0.0)) (name ^ ": elapsed identical")
                   off.Dispatcher.elapsed_ms on.Dispatcher.elapsed_ms;
                 Alcotest.(check bool) (name ^ ": rows identical") true
                   (off.Dispatcher.rows = on.Dispatcher.rows);
                 check_stream name p;
                 if
                   List.exists
                     (fun (s : Progress.sample) ->
                        s.Progress.label = Progress.Switch)
                     (Progress.samples p)
                 then switch_seen := true)
              [ (1, p1); (4, p4) ])
         Queries.all)
    all_modes;
  Alcotest.(check bool)
    "at least one stream crossed a plan switch" true !switch_seen;
  Engine.shutdown base;
  Engine.shutdown p1;
  Engine.shutdown p4

(* --- cancellation: an aborted run's stream stays monotone and open --- *)

let test_cancellation () =
  let eng = engine () in
  let p = Progress.create () in
  let cfg = Engine.dispatcher_config eng ~mode:Dispatcher.Full ~progress:p () in
  let r = Dispatcher.start cfg (Engine.bind_sql eng (sql "Q5")) in
  (match Dispatcher.step r with
   | Some _ -> Alcotest.fail "Q5 finished in one unit"
   | None -> ());
  (match Dispatcher.step r with Some _ | None -> ());
  Dispatcher.abort r;
  Alcotest.(check bool) "run aborted" true (Dispatcher.aborted r);
  Alcotest.(check bool) "stream monotone after abort" true
    (Progress.monotone p);
  Alcotest.(check bool) "a cancelled statement never reaches 100%" false
    (Progress.finished p);
  Alcotest.(check bool) "estimator saw the run start" true
    (Progress.samples p <> []);
  (match Progress.latest p with
   | Some last ->
     Alcotest.(check bool) "percent stays below 100" true
       (last.Progress.percent < 100.0)
   | None -> Alcotest.fail "no samples");
  Engine.shutdown eng

let suite =
  [ Alcotest.test_case "percent clamped monotone" `Quick
      test_percent_clamped_monotone;
    Alcotest.test_case "eta bounds" `Quick test_eta_bounds;
    Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
    Alcotest.test_case "all queries x modes x pools 1/4" `Quick test_matrix;
    Alcotest.test_case "cancellation keeps stream honest" `Quick
      test_cancellation ]
