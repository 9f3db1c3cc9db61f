module Dispatcher = Mqr_core.Dispatcher

type spec = {
  label : string;
  sql : string;
  mode : Dispatcher.mode;
  arrival_ms : float;
}

let spec ?(label = "") ?(mode = Dispatcher.Full) ?(arrival_ms = 0.0) sql =
  { label; sql; mode; arrival_ms }

type options = {
  max_concurrency : int;
  max_queue : int;
  feedback : bool;
}

let default_options = { max_concurrency = 4; max_queue = 64; feedback = true }

type query_result = {
  label : string;
  index : int;
  report : Dispatcher.report;
  arrival_ms : float;
  admit_ms : float;
  queue_ms : float;
  finish_ms : float;
}

type report = {
  results : query_result list;
  rejected : (int * string) list;
  failed : (int * string * string) list;
  makespan_ms : float;
  total_exec_ms : float;
  total_queue_ms : float;
  peak_leased_pages : int;
  outstanding_leases : int;
  stats_published : int;
  stats_applied : int;
}

let tenant = "wl"

let run ?(options = default_options) ?trace engine specs =
  let svc =
    Service.create ?trace
      ~options:
        { Service.default_options with
          Service.policy = Service.Round_robin;
          max_concurrency = options.max_concurrency;
          max_queue = options.max_queue;
          feedback = options.feedback }
      engine
  in
  Service.add_tenant svc ~slo:Session.Batch tenant;
  let session = Service.open_session svc ~tenant in
  let n = List.length specs in
  (* statement ids count from 0 on a fresh service, so a statement's id is
     its spec's index and unlabelled specs are labelled q<index> *)
  List.iteri
    (fun i (s : spec) ->
       (* the rest of the batch is still to come: the broker keeps an
          admission floor for each such query, so the first leases cannot
          take the whole budget and serialize the batch behind them *)
       Broker.set_pending (Service.broker svc)
         (Service.queued_count svc + n - i - 1);
       ignore
         (Session.submit ~label:s.label ~mode:s.mode ~arrival_ms:s.arrival_ms
            session s.sql))
    specs;
  Service.drain svc;
  let rep = Service.report svc in
  let results, rejected, failed =
    List.fold_right
      (fun (s : Session.stmt) (results, rejected, failed) ->
         let label = s.Session.stmt_label and index = s.Session.stmt_id in
         match s.Session.stmt_status with
         | Session.Done report ->
           ( { label;
               index;
               report;
               arrival_ms = s.Session.stmt_arrival_ms;
               admit_ms = s.Session.stmt_admit_ms;
               queue_ms = s.Session.stmt_admit_ms -. s.Session.stmt_arrival_ms;
               finish_ms = s.Session.stmt_finish_ms }
             :: results,
             rejected,
             failed )
         | Session.Shed -> (results, (index, label) :: rejected, failed)
         | Session.Failed msg -> (results, rejected, (index, label, msg) :: failed)
         | Session.Queued | Session.Running | Session.Cancelled ->
           (results, rejected, failed))
      rep.Service.statements ([], [], [])
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  { results;
    rejected;
    failed;
    makespan_ms = rep.Service.makespan_ms;
    total_exec_ms = sum (fun r -> r.finish_ms -. r.admit_ms);
    total_queue_ms = sum (fun r -> r.queue_ms);
    peak_leased_pages = rep.Service.peak_leased_pages;
    outstanding_leases = rep.Service.outstanding_leases;
    stats_published = rep.Service.stats_published;
    stats_applied = rep.Service.stats_applied }

let pp fmt (r : report) =
  Fmt.pf fmt "@[<v>workload: %d completed, %d rejected%s@,"
    (List.length r.results)
    (List.length r.rejected)
    (match r.failed with
     | [] -> ""
     | f -> Printf.sprintf ", %d failed" (List.length f));
  List.iter
    (fun q ->
       Fmt.pf fmt "  %-16s arrive %8.1f  queued %8.1f  exec %9.1f  finish %9.1f@,"
         q.label q.arrival_ms q.queue_ms
         (q.finish_ms -. q.admit_ms)
         q.finish_ms)
    r.results;
  List.iter
    (fun (i, label) -> Fmt.pf fmt "  %-16s rejected (queue full, index %d)@," label i)
    r.rejected;
  List.iter
    (fun (i, label, msg) ->
       Fmt.pf fmt "  %-16s failed (index %d): %s@," label i msg)
    r.failed;
  Fmt.pf fmt
    "  makespan %.1f ms  total exec %.1f ms  total queue %.1f ms@,\
    \  peak leased %d pages  stats published %d / applied %d@]"
    r.makespan_ms r.total_exec_ms r.total_queue_ms r.peak_leased_pages
    r.stats_published r.stats_applied
