(* Quick end-to-end exercise of the engine over a small TPC-D instance:
   runs every benchmark query in Off and Full modes and prints timings.
   Development aid; the real harness lives in bench/main.ml. *)

module Engine = Mqr_core.Engine
module Dispatcher = Mqr_core.Dispatcher
module Queries = Mqr_tpcd.Queries
module Workload = Mqr_tpcd.Workload

let () =
  let sf = try float_of_string Sys.argv.(1) with _ -> 0.005 in
  Fmt.pr "generating TPC-D catalog at sf=%g...@." sf;
  let catalog = Workload.experiment_catalog ~sf () in
  let engine = Engine.create ~budget_pages:256 catalog in
  List.iter
    (fun (q : Queries.query) ->
       Fmt.pr "=== %s (%s, %d joins) ===@." q.Queries.name
         (Queries.klass_to_string q.Queries.klass)
         q.Queries.joins;
       let off = Engine.run_sql engine ~mode:Dispatcher.Off q.Queries.sql in
       let full = Engine.run_sql engine ~mode:Dispatcher.Full q.Queries.sql in
       Fmt.pr "  normal:      %8.1f ms (%d rows)@."
         off.Dispatcher.elapsed_ms
         (Array.length off.Dispatcher.rows);
       Fmt.pr "  re-optimized:%8.1f ms (%d rows, %d collectors, %d switches)@."
         full.Dispatcher.elapsed_ms
         (Array.length full.Dispatcher.rows)
         full.Dispatcher.collectors full.Dispatcher.switches;
       let same =
         Array.length off.Dispatcher.rows = Array.length full.Dispatcher.rows
       in
       if not same then Fmt.pr "  !!! RESULT MISMATCH@.";
       List.iter
         (fun (_, ev) -> Fmt.pr "    %a@." Dispatcher.pp_event ev)
         full.Dispatcher.timed_events)
    Queries.all
