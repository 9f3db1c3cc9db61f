(* Workload manager: broker invariants, admission control, determinism,
   and concurrent-equals-serial results. *)
module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Broker = Mqr_wlm.Broker
module Admission = Mqr_wlm.Admission
module Wl = Mqr_wlm.Workload
module Queries = Mqr_tpcd.Queries
module Tpcd = Mqr_tpcd.Workload

let engine () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  Engine.create ~budget_pages:64 ~pool_pages:512 catalog

let specs names =
  List.map
    (fun n -> Wl.spec ~label:n (Queries.find n).Queries.sql)
    names

let serial_options =
  { Wl.default_options with Wl.max_concurrency = 1; feedback = false }

(* --- broker --- *)

let test_broker_never_oversubscribes () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  let sum_ok () =
    Alcotest.(check bool) "sum of leases <= budget" true
      (Broker.total_leased b <= Broker.budget_pages b)
  in
  Alcotest.(check int) "greedy lease capped at budget" 100
    (Broker.lease b ~id:1 ~min_pages:10 ~max_pages:400);
  sum_ok ();
  Alcotest.(check int) "nothing left for the second query" 0
    (Broker.lease b ~id:2 ~min_pages:10 ~max_pages:50);
  sum_ok ();
  (* shrinking re-negotiation returns the difference to the pool *)
  Alcotest.(check int) "shrink to 30" 30
    (Broker.lease b ~id:1 ~min_pages:10 ~max_pages:30);
  Alcotest.(check int) "freed pages available again" 50
    (Broker.lease b ~id:2 ~min_pages:10 ~max_pages:50);
  sum_ok ();
  Broker.release b ~id:1;
  Broker.release b ~id:2;
  Alcotest.(check int) "all pages back" 100 (Broker.free_pages b);
  Alcotest.(check int) "no leases outstanding" 0 (Broker.outstanding b)

let test_broker_reserves_floor_for_pending () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  Broker.set_pending b 3;
  (* floor is 25; three pending queries keep 75 pages in reserve *)
  Alcotest.(check int) "greedy lease leaves room for the batch" 25
    (Broker.lease b ~id:1 ~min_pages:1 ~max_pages:400);
  Broker.set_pending b 0;
  Alcotest.(check int) "reservation relaxes once the batch started" 100
    (Broker.lease b ~id:1 ~min_pages:1 ~max_pages:400)

let test_broker_admission_floor () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  Alcotest.(check bool) "admits when free" true (Broker.can_admit b);
  ignore (Broker.lease b ~id:1 ~min_pages:80 ~max_pages:80);
  Alcotest.(check bool) "refuses below the floor" false (Broker.can_admit b);
  Broker.release b ~id:1;
  Alcotest.(check bool) "admits again after release" true (Broker.can_admit b)

let test_broker_tenant_floors_prevent_starvation () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  Broker.register_tenant b ~weight:1 "alpha";
  Broker.register_tenant b ~weight:1 "beta";
  Broker.set_tenant_active b "alpha" true;
  Broker.set_tenant_active b "beta" true;
  Alcotest.(check int) "equal weights split the budget" 50
    (Broker.tenant_share b "alpha");
  (* a greedy alpha lease is clipped at the pages beta is entitled to *)
  Alcotest.(check int) "greedy lease stops at the other share" 50
    (Broker.lease b ~tenant:"alpha" ~id:1 ~min_pages:10 ~max_pages:400);
  Alcotest.(check bool) "the clip is counted as a broker wait" true
    (Broker.tenant_floor_waits b "alpha" >= 1);
  Alcotest.(check bool) "beta can still admit" true
    (Broker.can_admit_tenant b "beta");
  Alcotest.(check int) "beta gets its full share despite alpha" 50
    (Broker.lease b ~tenant:"beta" ~id:2 ~min_pages:10 ~max_pages:400);
  (* work-conserving: an idle tenant's share is available to everyone *)
  Broker.release b ~id:1;
  Broker.release b ~id:2;
  Broker.set_tenant_active b "beta" false;
  Alcotest.(check int) "idle share is not reserved" 100
    (Broker.lease b ~tenant:"alpha" ~id:3 ~min_pages:10 ~max_pages:400);
  Broker.release b ~id:3

let test_broker_tenant_lease_accounting () =
  let b = Broker.create ~budget_pages:100 ~max_concurrency:4 in
  Broker.register_tenant b ~weight:3 "alpha";
  Broker.register_tenant b ~weight:1 "beta";
  Alcotest.(check int) "weighted share" 75 (Broker.tenant_share b "alpha");
  ignore (Broker.lease b ~tenant:"alpha" ~id:1 ~min_pages:10 ~max_pages:40);
  ignore (Broker.lease b ~tenant:"alpha" ~id:2 ~min_pages:10 ~max_pages:20);
  ignore (Broker.lease b ~tenant:"beta" ~id:3 ~min_pages:10 ~max_pages:25);
  Alcotest.(check int) "leases sum per tenant" 60
    (Broker.tenant_leased b "alpha");
  Alcotest.(check int) "other tenant tracked separately" 25
    (Broker.tenant_leased b "beta");
  (* a shrinking re-negotiation is reflected in the owner's account *)
  ignore (Broker.lease b ~tenant:"alpha" ~id:1 ~min_pages:10 ~max_pages:10);
  Alcotest.(check int) "shrink returns tenant pages" 30
    (Broker.tenant_leased b "alpha");
  Broker.release b ~id:1;
  Broker.release b ~id:2;
  Broker.release b ~id:3;
  Alcotest.(check int) "alpha account back to zero" 0
    (Broker.tenant_leased b "alpha");
  Alcotest.(check int) "beta account back to zero" 0
    (Broker.tenant_leased b "beta");
  Alcotest.(check int) "peak remembers the high-water mark" 60
    (Broker.tenant_peak b "alpha");
  Alcotest.(check int) "no leases outstanding" 0 (Broker.outstanding b)

(* --- admission queue --- *)

let take q = Admission.take_if q (fun _ -> true)

let test_admission_fifo_order () =
  let q = Admission.create ~capacity:3 in
  Alcotest.(check bool) "offer a" true (Admission.offer q "a");
  Alcotest.(check bool) "offer b" true (Admission.offer q "b");
  Alcotest.(check bool) "offer c" true (Admission.offer q "c");
  Alcotest.(check bool) "full" false (Admission.offer q "d");
  Alcotest.(check (option string)) "first in first out" (Some "a") (take q);
  Alcotest.(check (option string)) "then the second" (Some "b") (take q);
  Alcotest.(check (option string)) "last in last out" (Some "c") (take q);
  Alcotest.(check (option string)) "empty" None (take q)

let test_admission_deadline_order () =
  let q = Admission.create ~capacity:4 in
  Alcotest.(check bool) "offer slack" true (Admission.offer q "slack");
  Alcotest.(check bool) "offer late" true
    (Admission.offer q ~deadline:100.0 "late");
  Alcotest.(check bool) "offer soon" true
    (Admission.offer q ~deadline:5.0 "soon");
  (* the tightest deadline overtakes everything queued before it *)
  Alcotest.(check (option string)) "earliest deadline first" (Some "soon")
    (take q);
  Alcotest.(check (option string)) "next deadline" (Some "late") (take q);
  Alcotest.(check (option string)) "no deadline last" (Some "slack") (take q)

let test_admission_take_if_skips () =
  let q = Admission.create ~capacity:4 in
  ignore (Admission.offer q ~deadline:5.0 "capped");
  ignore (Admission.offer q ~deadline:10.0 "second");
  ignore (Admission.offer q "third");
  (* the head's tenant is at its cap: skip it without reordering *)
  Alcotest.(check (option string)) "best eligible item" (Some "second")
    (Admission.take_if q (fun x -> x <> "capped"));
  Alcotest.(check (option string)) "skipped head still first" (Some "capped")
    (take q);
  Alcotest.(check (option string)) "rest untouched" (Some "third") (take q);
  Alcotest.(check bool) "drained" true (Admission.is_empty q)

(* --- workload --- *)

let canonical_by_label (r : Wl.report) =
  List.map
    (fun (q : Wl.query_result) ->
       (q.Wl.label, Reference.canonical q.Wl.report.Dispatcher.rows))
    r.Wl.results

let test_concurrent_matches_serial () =
  let names = [ "Q3"; "Q6"; "Q10"; "Q5" ] in
  let serial = Wl.run ~options:serial_options (engine ()) (specs names) in
  let conc =
    Wl.run
      ~options:{ Wl.default_options with Wl.max_concurrency = 4 }
      (engine ()) (specs names)
  in
  Alcotest.(check int) "all completed" 4 (List.length conc.Wl.results);
  List.iter2
    (fun (label, serial_rows) (label', conc_rows) ->
       Alcotest.(check string) "same order" label label';
       Alcotest.(check (list (list string))) (label ^ " same rows")
         serial_rows conc_rows)
    (canonical_by_label serial) (canonical_by_label conc);
  List.iter2
    (fun (a : Wl.query_result) (b : Wl.query_result) ->
       Alcotest.(check bool) (a.Wl.label ^ " bit-identical rows") true
         (a.Wl.report.Dispatcher.rows = b.Wl.report.Dispatcher.rows))
    serial.Wl.results conc.Wl.results;
  Alcotest.(check int) "no lease outlives its query" 0
    conc.Wl.outstanding_leases;
  Alcotest.(check bool) "peak within budget" true
    (conc.Wl.peak_leased_pages <= 64);
  Alcotest.(check bool) "overlap beats serial makespan" true
    (conc.Wl.makespan_ms < serial.Wl.makespan_ms);
  Alcotest.(check bool) "serial batch queues" true
    (serial.Wl.total_queue_ms > 0.0)

let test_workload_deterministic () =
  (* staggered arrivals; with two slots the third query waits in the queue *)
  let batch () =
    List.map2
      (fun n arrival_ms ->
         Wl.spec ~label:n ~arrival_ms (Queries.find n).Queries.sql)
      [ "Q3"; "Q6"; "Q10" ] [ 0.0; 35.0; 80.0 ]
  in
  let options = { Wl.default_options with Wl.max_concurrency = 2 } in
  let r1 = Wl.run ~options (engine ()) (batch ()) in
  let r2 = Wl.run ~options (engine ()) (batch ()) in
  Alcotest.(check (float 0.0)) "same makespan" r1.Wl.makespan_ms
    r2.Wl.makespan_ms;
  List.iter2
    (fun (a : Wl.query_result) (b : Wl.query_result) ->
       Alcotest.(check (float 0.0)) (a.Wl.label ^ " same arrival")
         a.Wl.arrival_ms b.Wl.arrival_ms;
       Alcotest.(check (float 0.0)) (a.Wl.label ^ " same admit") a.Wl.admit_ms
         b.Wl.admit_ms;
       Alcotest.(check (float 0.0)) (a.Wl.label ^ " same finish")
         a.Wl.finish_ms b.Wl.finish_ms;
       Alcotest.(check (list (list string))) (a.Wl.label ^ " same rows")
         (Reference.canonical a.Wl.report.Dispatcher.rows)
         (Reference.canonical b.Wl.report.Dispatcher.rows))
    r1.Wl.results r2.Wl.results

let test_rejection_when_queue_full () =
  let names = [ "Q6"; "Q6"; "Q6" ] in
  let options =
    { serial_options with Wl.max_queue = 1 }
  in
  let r = Wl.run ~options (engine ()) (specs names) in
  Alcotest.(check int) "two completed" 2 (List.length r.Wl.results);
  Alcotest.(check (list (pair int string))) "third was shed" [ (2, "Q6") ]
    r.Wl.rejected

let test_feedback_applies_stats () =
  let names = [ "Q10"; "Q10" ] in
  let options = { Wl.default_options with Wl.max_concurrency = 1 } in
  let r = Wl.run ~options (engine ()) (specs names) in
  Alcotest.(check bool) "first run published" true (r.Wl.stats_published > 0);
  Alcotest.(check bool) "second run applied cached stats" true
    (r.Wl.stats_applied > 0)

let test_failure_reads_as_engine_message () =
  let r =
    Wl.run ~options:serial_options (engine ())
      [ Wl.spec ~label:"Q6" (Queries.find "Q6").Queries.sql;
        Wl.spec ~label:"bad" "select nonsense from nowhere";
        Wl.spec ~label:"typo" "selec 1" ]
  in
  Alcotest.(check int) "Q6 completed" 1 (List.length r.Wl.results);
  Alcotest.(check (list (triple int string string)))
    "bind and parse errors carry their message, not the exception"
    [ (1, "bad", "unknown table nowhere");
      (2, "typo", "expected select (at token selec)") ]
    r.Wl.failed

(* --- batch timelines ----------------------------------------------------- *)

(* Every batch below, query by query: label, admission and finish times
   as IEEE bit patterns, plan switches, collectors and a digest of the
   canonical result rows, then the batch's makespan and feedback-cache
   counts.  Concurrency 1 is the serial baseline: one query holds the
   whole budget at a time, so its lease peak says nothing about sharing
   and is left out.  A change to how the scheduler admits, steps or
   funds queries must leave every line exactly as it was. *)

let batch_mixes =
  [ [ "Q3"; "Q5"; "Q7"; "Q10" ];
    [ "Q8"; "Q5"; "Q3"; "Q7"; "Q10"; "Q1"; "Q6" ];
    [ "Q10"; "Q10"; "Q5"; "Q5"; "Q7" ] ]

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let rows_digest rows =
  Reference.canonical rows
  |> List.map (String.concat "|")
  |> String.concat "\n" |> Digest.string |> Digest.to_hex


let batch_timelines () =
  let catalog = Tpcd.experiment_catalog ~sf:0.001 () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun mix ->
       List.iter
         (fun budget ->
            List.iter
              (fun concurrency ->
                 List.iter
                   (fun feedback ->
                      let engine =
                        Engine.create ~budget_pages:budget ~pool_pages:512
                          catalog
                      in
                      let r =
                        Wl.run
                          ~options:
                            { Wl.default_options with
                              Wl.max_concurrency = concurrency;
                              feedback }
                          engine (specs mix)
                      in
                      Printf.bprintf buf
                        "batch %s budget=%d concurrency=%d feedback=%b\n"
                        (String.concat "," mix) budget concurrency feedback;
                      List.iter
                        (fun (q : Wl.query_result) ->
                           let d = q.Wl.report in
                           Printf.bprintf buf
                             "  %s admit=%s finish=%s switches=%d \
                              collectors=%d rows=%s\n"
                             q.Wl.label (bits q.Wl.admit_ms)
                             (bits q.Wl.finish_ms) d.Dispatcher.switches
                             d.Dispatcher.collectors
                             (rows_digest d.Dispatcher.rows))
                        r.Wl.results;
                      Printf.bprintf buf "  makespan=%s" (bits r.Wl.makespan_ms);
                      if concurrency > 1 then
                        Printf.bprintf buf " peak=%d" r.Wl.peak_leased_pages;
                      Printf.bprintf buf " published=%d applied=%d\n"
                        r.Wl.stats_published r.Wl.stats_applied)
                   [ true; false ])
              [ 1; 2; 4 ])
         [ 24; 64 ])
    batch_mixes;
  Buffer.contents buf

let test_batch_timelines_golden () =
  Golden.check "wlm_batches" (batch_timelines ())

let suite =
  [ Alcotest.test_case "broker never oversubscribes" `Quick
      test_broker_never_oversubscribes;
    Alcotest.test_case "broker reserves floor for pending" `Quick
      test_broker_reserves_floor_for_pending;
    Alcotest.test_case "broker admission floor" `Quick
      test_broker_admission_floor;
    Alcotest.test_case "broker tenant floors prevent starvation" `Quick
      test_broker_tenant_floors_prevent_starvation;
    Alcotest.test_case "broker tenant lease accounting" `Quick
      test_broker_tenant_lease_accounting;
    Alcotest.test_case "admission fifo order" `Quick
      test_admission_fifo_order;
    Alcotest.test_case "admission deadline order" `Quick
      test_admission_deadline_order;
    Alcotest.test_case "admission take_if skips" `Quick
      test_admission_take_if_skips;
    Alcotest.test_case "concurrent matches serial" `Quick
      test_concurrent_matches_serial;
    Alcotest.test_case "workload deterministic" `Quick
      test_workload_deterministic;
    Alcotest.test_case "rejection when queue full" `Quick
      test_rejection_when_queue_full;
    Alcotest.test_case "feedback applies stats" `Quick
      test_feedback_applies_stats;
    Alcotest.test_case "failure reads as engine message" `Quick
      test_failure_reads_as_engine_message;
    Alcotest.test_case "batch timelines golden" `Quick
      test_batch_timelines_golden ]
