open Mqr_storage

let filter ctx schema pred rows =
  let p = Mqr_expr.Expr.compile_pred schema pred in
  let n = Array.length rows in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock n;
  (* one predicate call per row, in order, into a byte mask; the result
     is then allocated at its exact size *)
  let keep = Bytes.make n '\000' in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if p rows.(i) then begin
      Bytes.set keep i '\001';
      incr k
    end
  done;
  let out = Array.make !k [||] in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get keep i = '\001' then begin
      out.(!j) <- rows.(i);
      incr j
    end
  done;
  out

let project ctx schema cols rows =
  let idxs = List.map (Schema.index_of schema) cols in
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (Array.length rows);
  (Array.map (fun t -> Tuple.project t idxs) rows, Schema.project schema idxs)

let limit ctx n rows =
  Sim_clock.charge_cpu_tuples ctx.Exec_ctx.clock (min n (Array.length rows));
  if Array.length rows <= n then rows else Array.sub rows 0 n

let bytes_of_rows rows =
  Array.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 rows
