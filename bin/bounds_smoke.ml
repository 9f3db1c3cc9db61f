(* Bounds gate smoke: Q3, Q5 and Q7 run under the sanitizer (every
   observed cardinality cross-checked against its provable interval;
   BND-OBSERVED is a hard error) in Off and Full modes, and the
   re-optimized rows must be byte-identical to the baseline.  Exits
   non-zero on any mismatch — wired into `dune build @bounds`. *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Verifier = Mqr_analysis.Verifier
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload

let () =
  let sf = try float_of_string Sys.argv.(1) with _ -> 0.001 in
  let catalog = Workload.experiment_catalog ~sf () in
  let engine =
    Engine.create ~budget_pages:64 ~verify_plans:Verifier.Sanitize catalog
  in
  let failed = ref false in
  List.iter
    (fun name ->
       let q = Queries.find name in
       let off = Engine.run_sql engine ~mode:Dispatcher.Off q.Queries.sql in
       let full = Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql in
       let identical = full.Dispatcher.rows = off.Dispatcher.rows in
       Fmt.pr "%s [full]: %d rows in %.1f ms (%d switches) %s@." name
         (Array.length full.Dispatcher.rows)
         full.Dispatcher.elapsed_ms full.Dispatcher.switches
         (if identical then "= baseline" else "!!! RESULT MISMATCH");
       if not identical then failed := true)
    [ "Q3"; "Q5"; "Q7" ];
  if !failed then exit 1
