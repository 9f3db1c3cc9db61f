(** Batch workloads: run a list of SQL queries concurrently and report
    each query's place on the shared simulated timeline.

    [run] is a batch client of {!Service}: it opens one batch tenant on a
    round-robin service, submits the specs in order and drains it.  So a
    batch gets the service's admission control (at most
    [max_concurrency] queries execute at once; the rest wait FIFO, or are
    shed when the queue is full), its shared memory {!Broker} (leases
    sliced from the engine's global page budget, freed pages re-granted
    to queued and then running queries), its round-robin stepping (one
    execution unit per running query per pass) and its statistics
    feedback cache (each query's observed cardinalities and histograms
    published for later queries to optimize with).

    Time is simulated: each query runs on its own cost ledger, and a
    query admitted when another finished starts its ledger at that finish
    time.  The workload makespan is the latest finish across the batch.
    [max_concurrency = 1] is the serial baseline (one query at a time,
    each with the whole budget); with more slots queries that would each
    need the full budget serially overlap, so the makespan drops below
    the serial sum. *)

module Dispatcher = Mqr_core.Dispatcher

type spec = {
  label : string;
  sql : string;
  mode : Dispatcher.mode;
  arrival_ms : float;  (** submission time on the workload clock *)
}

(** [spec sql] with defaults: label ["q<n>"] assigned by {!run}, mode
    [Full], arrival 0. *)
val spec :
  ?label:string -> ?mode:Dispatcher.mode -> ?arrival_ms:float -> string -> spec

type options = {
  max_concurrency : int;  (** admission limit (default 4) *)
  max_queue : int;        (** run-queue capacity (default 64) *)
  feedback : bool;        (** cross-query statistics cache (default on) *)
}

val default_options : options

type query_result = {
  label : string;
  index : int;            (** submission order *)
  report : Dispatcher.report;
  arrival_ms : float;
  admit_ms : float;
  queue_ms : float;       (** [admit_ms -. arrival_ms] *)
  finish_ms : float;      (** [admit_ms +.] simulated execution time *)
}

type report = {
  results : query_result list;  (** in submission order *)
  rejected : (int * string) list;
      (** (index, label) of queries shed by the full queue *)
  failed : (int * string * string) list;
      (** (index, label, error) of queries that failed to bind or
          execute; the rest of the batch runs on *)
  makespan_ms : float;          (** latest finish *)
  total_exec_ms : float;        (** sum of per-query simulated times *)
  total_queue_ms : float;
  peak_leased_pages : int;      (** high-water mark of broker leases *)
  outstanding_leases : int;     (** leases alive after the batch — 0 *)
  stats_published : int;        (** feedback-cache statistics stored *)
  stats_applied : int;          (** feedback-cache overrides installed *)
}

(** Name of the batch tenant {!run} opens: trace lanes are labelled
    ["wl/<label>"] and the service metrics are [svc.wl.*] (queue waits in
    the [svc.wl.queue_ms] histogram, shed queries in the [svc.wl.shed]
    counter). *)
val tenant : string

(** [trace] attaches an observability collector to the service: each
    admitted query opens a scope (one Chrome-trace lane) whose
    [offset_ms] is the query's admission time, so spans from
    concurrently-running queries interleave correctly on the shared
    workload timeline. *)
val run :
  ?options:options -> ?trace:Mqr_obs.Trace.t -> Mqr_core.Engine.t ->
  spec list -> report

val pp : Format.formatter -> report -> unit
