(* The correctness oracle: every measured query's rows, as a sorted
   multiset of rendered tuples, must equal those of a serial, cache-less,
   re-optimization-free ([Off]) run of the same text at the same database
   state. *)

open Mqr_core

type rows = string list

let canon (rows : Mqr_storage.Tuple.t array) : rows =
  List.sort compare
    (Array.to_list (Array.map (Fmt.str "%a" Mqr_storage.Tuple.pp) rows))

let agrees ~(expected : rows) ~(got : rows) = expected = got

(* References run on a serial engine with the plan cache off. *)
let run engine sql = canon (Engine.run_sql engine ~mode:Dispatcher.Off sql).Dispatcher.rows

(* Reference rows per distinct text, for workloads that never write: the
   database state is the same for every statement. *)
let of_texts catalog texts =
  let e = Engine.create catalog in
  let memo = Hashtbl.create 32 in
  List.iter
    (fun sql -> if not (Hashtbl.mem memo sql) then Hashtbl.replace memo sql (run e sql))
    texts;
  Engine.shutdown e;
  memo

(* Replay a statement sequence that writes on a fresh catalog, returning
   the reference rows of each SELECT in sequence order.  ANALYZE changes
   statistics, never rows, so the replay skips it. *)
let replay catalog (stmts : Gen.stmt list) =
  let e = Engine.create catalog in
  let out =
    List.filter_map
      (fun (s : Gen.stmt) ->
         match s.Gen.kind with
         | Gen.Select -> Some (run e s.Gen.sql)
         | Gen.Insert | Gen.Delete ->
           ignore (Engine.execute e s.Gen.sql);
           None
         | Gen.Analyze -> None)
      stmts
  in
  Engine.shutdown e;
  out
