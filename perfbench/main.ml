(* perfbench: run one workload for a given seed and time budget.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--dump FILE]

   Prints every metric the run knows, one per line, then as the last line
   a JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
   non-zero when any statement failed or returned rows that differ from
   the oracle's.  Normally started through perfbench/run.py, which
   builds it first. *)

open Perfbench

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--dump FILE]\n"
    (String.concat "|" Workloads.names);
  exit 2

let out_dir = ".perfbench_out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and dump = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ()); parse rest
    | "--dump" :: v :: rest -> dump := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Workloads.names) then usage ();
  let r = Workloads.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace in
  if !dump <> "" then
    Gen.dump !dump
      (List.map
         (fun (note, s) ->
            if note = "" then s else { s with Gen.label = s.Gen.label ^ " " ^ note })
         r.Workloads.statements);
  Option.iter
    (fun tr ->
       if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
       let path =
         Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed)
       in
       Spans.write_file tr path;
       Printf.printf "spans written to %s\n" path)
    r.Workloads.spans;
  Printf.printf "workload %s seed %d trace %d\n" !workload !seed (if !trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.Workloads.report;
  let correct = r.Workloads.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Workloads.attempted);
            ("failed", Json.Int r.Workloads.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (x : Workloads.metric) ->
                      ( x.Workloads.name,
                        Json.Obj
                          [ ("value", Json.Float x.Workloads.value);
                            ("unit", Json.String x.Workloads.unit_) ] ))
                   r.Workloads.metrics) ) ]));
  exit (if correct then 0 else 1)
