(* A batch of TPC-D queries through the workload manager, twice: once
   serially (one query at a time, each with the whole page budget), then
   four at a time with cross-query statistics feedback.  The batch runs
   as one tenant of the query service: its memory broker leases slices of
   one global page budget to the running queries, and pages freed by a
   finished query are re-granted to the others — so the batch overlaps
   and the simulated makespan drops well below the serial sum, while
   every query returns exactly the same rows.

     dune exec examples/concurrent_workload.exe *)

module Engine = Mqr_core.Engine
module Queries = Mqr_tpcd.Queries
module Wl = Mqr_wlm.Workload

let budget_pages = 128

let engine () =
  let catalog = Mqr_tpcd.Workload.experiment_catalog ~sf:0.002 () in
  Engine.create ~budget_pages ~pool_pages:(8 * budget_pages) catalog

let () =
  let batch =
    List.map
      (fun name -> Wl.spec ~label:name (Queries.find name).Queries.sql)
      [ "Q3"; "Q5"; "Q7"; "Q10" ]
  in

  Fmt.pr "== serial: one query at a time, %d pages each ==@." budget_pages;
  let serial =
    Wl.run
      ~options:
        { Wl.default_options with Wl.max_concurrency = 1; feedback = false }
      (engine ()) batch
  in
  Fmt.pr "%a@.@." Wl.pp serial;

  Fmt.pr "== concurrent: broker leases over the same %d pages ==@."
    budget_pages;
  let conc =
    Wl.run
      ~options:{ Wl.default_options with Wl.max_concurrency = 4 }
      (engine ()) batch
  in
  Fmt.pr "%a@.@." Wl.pp conc;

  Fmt.pr "makespan: %.1f ms serial -> %.1f ms concurrent (%.2fx)@."
    serial.Wl.makespan_ms conc.Wl.makespan_ms
    (serial.Wl.makespan_ms /. conc.Wl.makespan_ms)
