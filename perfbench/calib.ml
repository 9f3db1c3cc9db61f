(* The machine's speed, measured in the same process as the workload.

   A shared virtual machine's speed drifts with its neighbours' load, by
   tens of percent from one second to the next, and process CPU time
   drifts with it.  So the benchmark runs a fixed reference job, which
   shares no code with the program under test, right before every
   statement of a closed loop, every [every] CPU seconds of a service
   episode, and around every set-up, and scales each gated timing by
   [nominal_ms] over the mean time of the reference runs that bracket or
   fall inside it: a timing reads what it would on a machine that runs
   the job in [nominal_ms].  The job allocates, hashes, sorts and
   compares strings, as the engine does, so the two slow down together.
   Its own CPU time is left out of [cpu], so no timing includes it. *)

let nominal_ms = 5.0
let every = 0.1

(* A fixed amount of work: 5–8 ms of CPU on a shared two-vCPU Xeon VM. *)
let job () =
  let n = 5_000 in
  let h = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (i * 7919 mod 100_003) (string_of_int i)
  done;
  let a = Array.init n (fun i -> (Hashtbl.hash (i * 31), string_of_int i)) in
  Array.sort compare a;
  let acc = ref 0 in
  Array.iter
    (fun (k, _) ->
       match Hashtbl.find_opt h (k mod 100_003) with
       | Some s -> acc := !acc + String.length s
       | None -> incr acc)
    a;
  List.fold_left (fun s (k, _) -> s + (k land 7)) !acc (Array.to_list a)

let spent = ref 0.0        (* CPU seconds the job has taken so far *)
let last = ref neg_infinity
let runs = ref 0
let total_ms = ref 0.0

(* Process CPU time (user plus system, every domain) less the job's. *)
let cpu () = Sys.time () -. !spent

(* Run the job once; its CPU time in ms. *)
let run () =
  let c0 = Sys.time () in
  ignore (Sys.opaque_identity (job ()));
  let d = Sys.time () -. c0 in
  spent := !spent +. d;
  last := cpu ();
  incr runs;
  total_ms := !total_ms +. (1000.0 *. d);
  1000.0 *. d

(* Run the job if [every] CPU seconds of other work have passed since it
   last ran. *)
let tick () = if cpu () -. !last >= every then ignore (run ())

(* A window over the runs: [mean_ms m] is the mean time of the runs
   since [mark ()] returned [m]. *)
type mark = { m_runs : int; m_total : float }

let mark () = { m_runs = !runs; m_total = !total_ms }

let mean_ms m =
  let n = !runs - m.m_runs in
  if n = 0 then nominal_ms else (!total_ms -. m.m_total) /. float_of_int n

(* Multiply a time measured while the job took [ref_ms] by this. *)
let scale ref_ms = nominal_ms /. ref_ms

(* Every run so far, for humans. *)
let summary () =
  Printf.sprintf "%.3f ms mean CPU over %d runs (nominal %.1f ms)"
    (mean_ms { m_runs = 0; m_total = 0.0 }) !runs nominal_ms
