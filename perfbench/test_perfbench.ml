(* The benchmark's own checks: generator determinism, the tail rule,
   metric names, and an oracle that notices a perturbed row set. *)

open Perfbench

let catalog () = Mqr_tpcd.Workload.experiment_catalog ~sf:0.001 ()

(* Everything the generator produces for one seed, from a freshly
   generated catalog. *)
let statements ~seed =
  let c = catalog () in
  let p = Gen.pools c in
  let queries =
    Gen.query_list p ~seed ~templates:[ "Q1"; "Q3"; "Q5"; "Q6"; "Q7"; "Q8"; "Q10" ] ~cycles:2
  in
  let next = Gen.reporting_stream p (Gen.dml_pools c ~seed) ~seed in
  (* eight whole rounds: three reads and two writes each, and one ANALYZE *)
  let reporting =
    List.init ((Gen.analyze_every * (Gen.reads_per_round + 2)) + 1) (fun _ -> next ())
  in
  let service =
    List.map
      (fun (a : Gen.arrival) -> (a.Gen.tenant, a.Gen.at_ms, a.Gen.stmt))
      (Gen.arrivals (Gen.service_texts p ~seed) ~seed ~episode:1 ~n:30 ~rate_per_s:0.6)
  in
  (queries, reporting, service)

let test_determinism () =
  let a = statements ~seed:7 and b = statements ~seed:7 in
  Alcotest.(check bool) "same seed, same statements" true (a = b);
  let c = statements ~seed:8 in
  Alcotest.(check bool) "another seed, other statements" false (a = c);
  let _, reporting, _ = a in
  let kinds = List.sort_uniq compare (List.map (fun s -> s.Gen.kind) reporting) in
  Alcotest.(check int) "reporting stream reads, inserts, deletes and analyzes" 4
    (List.length kinds)

let test_generated_sql_runs () =
  (* every generated statement is accepted by the engine, and the writes
     leave the tables as they found them: every INSERT batch is deleted
     again, so however long the stream runs the tables stay level *)
  let c = catalog () in
  let e = Mqr_core.Engine.create c in
  let count t =
    (Mqr_core.Engine.run_sql e ("select count(*) as n from " ^ t)).Mqr_core.Dispatcher.rows
  in
  let sizes () = (count "orders", count "lineitem") in
  let before = sizes () in
  let queries, reporting, _ = statements ~seed:3 in
  let n kind = List.length (List.filter (fun s -> s.Gen.kind = kind) reporting) in
  Alcotest.(check int) "as many DELETEs as INSERTs" (n Gen.Insert) (n Gen.Delete);
  List.iter (fun s -> ignore (Mqr_core.Engine.execute e s.Gen.sql)) (queries @ reporting);
  Alcotest.(check bool) "table sizes unchanged" true (before = sizes ());
  Mqr_core.Engine.shutdown e

let test_tail () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "10th largest of 1..100" 91.0 (Stat.tail xs);
  Alcotest.(check (float 0.0)) "exactly ten samples: the smallest" 1.0
    (Stat.tail (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (float 0.0)) "fewer than ten: the largest" 5.0
    (Stat.tail [ 3.0; 5.0; 1.0 ]);
  Alcotest.(check (float 0.0)) "tail ignores input order" 91.0 (Stat.tail (List.rev xs));
  Alcotest.(check (float 0.0)) "median of an even count" 50.5 (Stat.median xs)

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Json.valid_name n))
    (Workloads.end_to_end_names @ Workloads.per_layer_names);
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Json.valid_name n))
    [ ""; "p50 ms"; "_lead"; "a/b"; "q\"x"; String.make 65 'a' ];
  let all = Workloads.end_to_end_names @ Workloads.per_layer_names in
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_benchmark_json () =
  (* every metric the code reports is declared in BENCHMARK.json *)
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let declared n =
    let needle = Printf.sprintf "\"name\": \"%s\"" n in
    let ln = String.length needle and lt = String.length text in
    let rec find i = i + ln <= lt && (String.sub text i ln = needle || find (i + 1)) in
    find 0
  in
  List.iter
    (fun n -> Alcotest.(check bool) ("declared " ^ n) true (declared n))
    (Workloads.end_to_end_names @ Workloads.per_layer_names)

let test_oracle_rejects_perturbation () =
  let c = catalog () in
  let e = Mqr_core.Engine.create c in
  let r = Mqr_core.Engine.run_sql e Mqr_tpcd.Queries.q1.Mqr_tpcd.Queries.sql in
  Mqr_core.Engine.shutdown e;
  let rows = r.Mqr_core.Dispatcher.rows in
  Alcotest.(check bool) "query returns rows" true (Array.length rows > 1);
  let expected = Oracle.canon rows in
  Alcotest.(check bool) "same rows agree" true
    (Oracle.agrees ~expected ~got:(Oracle.canon (Array.of_list (List.rev (Array.to_list rows)))));
  let perturbed = Array.map Array.copy rows in
  let last = Array.length perturbed.(0) - 1 in
  perturbed.(0).(last) <-
    (match perturbed.(0).(last) with
     | Mqr_storage.Value.Int i -> Mqr_storage.Value.Int (i + 1)
     | Mqr_storage.Value.Float f -> Mqr_storage.Value.Float (f +. 1.0)
     | _ -> Mqr_storage.Value.Null);
  Alcotest.(check bool) "a perturbed value is rejected" false
    (Oracle.agrees ~expected ~got:(Oracle.canon perturbed));
  Alcotest.(check bool) "a dropped row is rejected" false
    (Oracle.agrees ~expected ~got:(Oracle.canon (Array.sub rows 1 (Array.length rows - 1))));
  Alcotest.(check bool) "a duplicated row is rejected" false
    (Oracle.agrees ~expected ~got:(Oracle.canon (Array.append rows [| rows.(0) |])))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "generator is deterministic per seed" `Quick test_determinism;
          Alcotest.test_case "generated statements run" `Quick test_generated_sql_runs;
          Alcotest.test_case "tail rank helper" `Quick test_tail;
          Alcotest.test_case "metric names charset" `Quick test_metric_names;
          Alcotest.test_case "metrics declared in BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "oracle rejects perturbed rows" `Quick
            test_oracle_rejects_perturbation ] ) ]
