(* Seeded statement generator.  Query parameters and DML rows are drawn
   from values actually present in the generated catalog, read through
   the Catalog/Heap_file API once at set-up; the same seed always yields
   the same statement sequence. *)

open Mqr_storage
module Catalog = Mqr_catalog.Catalog

type kind = Select | Insert | Delete | Analyze

type stmt = {
  label : string;  (* template ("Q5") or write kind ("insert") *)
  kind : kind;
  sql : string;
}

let kind_to_string = function
  | Select -> "select"
  | Insert -> "insert"
  | Delete -> "delete"
  | Analyze -> "analyze"

(* --- parameter pools --------------------------------------------------- *)

type pools = {
  regions : string array;
  nations : string array;
  segments : string array;
  p_types : string array;
  order_dates : int array;  (* distinct o_orderdate, ascending *)
  ship_dates : int array;   (* distinct l_shipdate, ascending *)
  discounts : float array;  (* distinct l_discount, ascending *)
}

(* Distinct values of a column, ascending, kept where [f] accepts them. *)
let distinct catalog ~table ~column f =
  let tbl = Catalog.find_exn catalog table in
  let ci =
    match Catalog.column_index tbl column with
    | Some i -> i
    | None -> invalid_arg ("Gen: no column " ^ column)
  in
  let acc = ref [] in
  Heap_file.iter tbl.Catalog.heap (fun _ tuple -> acc := tuple.(ci) :: !acc);
  Array.of_list (List.filter_map f (List.sort_uniq Value.compare !acc))

let pools catalog =
  let str = function Value.String s -> Some s | _ -> None in
  let date = function Value.Date d -> Some d | _ -> None in
  { regions = distinct catalog ~table:"region" ~column:"r_name" str;
    nations = distinct catalog ~table:"nation" ~column:"n_name" str;
    segments = distinct catalog ~table:"customer" ~column:"c_mktsegment" str;
    p_types = distinct catalog ~table:"part" ~column:"p_type" str;
    order_dates = distinct catalog ~table:"orders" ~column:"o_orderdate" date;
    ship_dates = distinct catalog ~table:"lineitem" ~column:"l_shipdate" date;
    discounts =
      distinct catalog ~table:"lineitem" ~column:"l_discount"
        (function Value.Float f -> Some f | _ -> None) }

(* --- drawing ----------------------------------------------------------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let day s =
  match Value.date_of_string s with
  | Value.Date d -> d
  | _ -> invalid_arg "Gen.day"

let date_lit d = Printf.sprintf "date '%s'" (Value.date_to_string d)

(* The present dates inside [lo, hi] (ISO strings); the whole pool when
   none fall inside, so a small catalog still yields a statement. *)
let within dates ~lo ~hi =
  let lo = day lo and hi = day hi in
  let inside = List.filter (fun d -> d >= lo && d <= hi) (Array.to_list dates) in
  if inside = [] then dates else Array.of_list inside

(* The first present date on or after [d]: windows start and end on
   values the data actually holds. *)
let snap dates d =
  match List.find_opt (fun x -> x >= d) (Array.to_list dates) with
  | Some x -> x
  | None -> dates.(Array.length dates - 1)

let year_start dates y = snap dates (day (Printf.sprintf "%04d-01-01" y))

let month_start dates ~year ~month =
  let year = year + ((month - 1) / 12) and month = ((month - 1) mod 12) + 1 in
  snap dates (day (Printf.sprintf "%04d-%02d-01" year month))

(* --- the TPC-D templates (qgen-style parameters) ----------------------- *)

let q1 p rng =
  let cutoff = pick rng (within p.ship_dates ~lo:"1998-08-03" ~hi:"1998-10-02") in
  Printf.sprintf
    "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
     sum(l_extendedprice) as sum_price, avg(l_quantity) as avg_qty, \
     avg(l_discount) as avg_disc, count(*) as count_order from lineitem \
     where l_shipdate <= %s group by l_returnflag, l_linestatus \
     order by l_returnflag, l_linestatus"
    (date_lit cutoff)

let q3 p rng =
  let seg = pick rng p.segments in
  let d = date_lit (pick rng (within p.order_dates ~lo:"1995-03-01" ~hi:"1995-03-31")) in
  Printf.sprintf
    "select l_orderkey, sum(l_extendedprice) as revenue, o_orderdate, \
     o_shippriority from customer, orders, lineitem \
     where c_mktsegment = '%s' and c_custkey = o_custkey \
     and l_orderkey = o_orderkey and o_orderdate < %s and l_shipdate > %s \
     group by l_orderkey, o_orderdate, o_shippriority \
     order by revenue desc, o_orderdate limit 10"
    seg d d

let q5 p rng =
  let region = pick rng p.regions in
  let y = 1993 + Random.State.int rng 5 in
  Printf.sprintf
    "select n_name, sum(l_extendedprice) as revenue \
     from customer, orders, lineitem, supplier, nation, region \
     where c_custkey = o_custkey and l_orderkey = o_orderkey \
     and l_suppkey = s_suppkey and c_nationkey = s_nationkey \
     and s_nationkey = n_nationkey and n_regionkey = r_regionkey \
     and r_name = '%s' and o_orderdate >= %s and o_orderdate < %s \
     group by n_name order by revenue desc"
    region
    (date_lit (year_start p.order_dates y))
    (date_lit (year_start p.order_dates (y + 1)))

let q6 p rng =
  let y = 1993 + Random.State.int rng 5 in
  let in_range d = d >= 0.02 && d <= 0.09 in
  let d = pick rng (Array.of_list (List.filter in_range (Array.to_list p.discounts))) in
  Printf.sprintf
    "select sum(l_extendedprice) as revenue from lineitem \
     where l_shipdate >= %s and l_shipdate < %s \
     and l_discount between %.4f and %.4f and l_quantity < %d"
    (date_lit (year_start p.ship_dates y))
    (date_lit (year_start p.ship_dates (y + 1)))
    (d -. 0.01) (d +. 0.01)
    (24 + Random.State.int rng 2)

let q7 p rng =
  let n1 = pick rng p.nations in
  let rec other () = let n = pick rng p.nations in if n = n1 then other () else n in
  let n2 = other () in
  Printf.sprintf
    "select n1.n_name as supp_nation, n2.n_name as cust_nation, \
     sum(l_extendedprice) as revenue \
     from supplier, lineitem, orders, customer, nation n1, nation n2 \
     where s_suppkey = l_suppkey and o_orderkey = l_orderkey \
     and c_custkey = o_custkey and s_nationkey = n1.n_nationkey \
     and c_nationkey = n2.n_nationkey \
     and ((n1.n_name = '%s' and n2.n_name = '%s') \
     or (n1.n_name = '%s' and n2.n_name = '%s')) \
     and l_shipdate between date '1995-01-01' and date '1996-12-31' \
     group by n1.n_name, n2.n_name"
    n1 n2 n2 n1

let q8 p rng =
  let region = pick rng p.regions in
  let ptype = pick rng p.p_types in
  Printf.sprintf
    "select n2.n_name as nation, sum(l_extendedprice) as volume \
     from part, supplier, lineitem, orders, customer, nation n1, nation n2, \
     region where p_partkey = l_partkey and s_suppkey = l_suppkey \
     and l_orderkey = o_orderkey and o_custkey = c_custkey \
     and c_nationkey = n1.n_nationkey and n1.n_regionkey = r_regionkey \
     and r_name = '%s' and s_nationkey = n2.n_nationkey \
     and o_orderdate between date '1995-01-01' and date '1996-12-31' \
     and p_type = '%s' group by n2.n_name"
    region ptype

let q10 p rng =
  let m = Random.State.int rng 24 in
  let lo = month_start p.order_dates ~year:1993 ~month:(2 + m) in
  let hi = month_start p.order_dates ~year:1993 ~month:(5 + m) in
  Printf.sprintf
    "select c_custkey, c_name, sum(l_extendedprice) as revenue, n_name \
     from customer, orders, lineitem, nation \
     where c_custkey = o_custkey and l_orderkey = o_orderkey \
     and o_orderdate >= %s and o_orderdate < %s \
     and l_returnflag = 'R' and c_nationkey = n_nationkey \
     group by c_custkey, c_name, n_name order by revenue desc limit 20"
    (date_lit lo) (date_lit hi)

let template = function
  | "Q1" -> q1 | "Q3" -> q3 | "Q5" -> q5 | "Q6" -> q6
  | "Q7" -> q7 | "Q8" -> q8 | "Q10" -> q10
  | name -> invalid_arg ("Gen.template: " ^ name)

let select p rng name = { label = name; kind = Select; sql = template name p rng }

let rng_of ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* [count] template names, each of [templates] equally often (up to one
   more for the first ones), in seeded order. *)
let balanced rng templates count =
  let k = Array.length templates in
  shuffle rng (List.init count (fun i -> templates.(i mod k)))

(* [cycles] balanced cycles, each one variant of every template in order. *)
let query_list p ~seed ~templates ~cycles =
  let rng = rng_of ~seed ~salt:1 in
  List.concat
    (List.init cycles (fun _ -> List.map (select p rng) templates))

(* --- DML ---------------------------------------------------------------- *)

let literal = function
  | Value.Null -> "null"
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f
  | Value.String s -> "'" ^ s ^ "'"
  | Value.Date d -> date_lit d

let values_sql rows =
  String.concat ", "
    (List.map
       (fun (t : Tuple.t) ->
          "(" ^ String.concat ", " (Array.to_list (Array.map literal t)) ^ ")")
       rows)

(* Rows the write stream clones: a seeded sample of existing orders and
   lineitems, and the first key above every existing order key. *)
type dml_pools = {
  orders : Tuple.t array;
  lineitems : Tuple.t array;
  first_free_key : int;
}

let sample rng heap n =
  let count = Heap_file.tuple_count heap in
  Array.init n (fun _ -> Array.copy (Heap_file.get heap (Random.State.int rng count)))

let dml_pools catalog ~seed =
  let rng = rng_of ~seed ~salt:2 in
  let heap t = (Catalog.find_exn catalog t).Catalog.heap in
  let max_key = ref 0 in
  Heap_file.iter (heap "orders") (fun _ t ->
      match t.(0) with Value.Int k -> max_key := max !max_key k | _ -> ());
  { orders = sample rng (heap "orders") 256;
    lineitems = sample rng (heap "lineitem") 1024;
    first_free_key = !max_key + 1 }

(* --- the reporting stream ---------------------------------------------- *)

(* A fixed dashboard of twelve query texts: four parameter sets each of
   the cheap Q3 and Q10, two each of the six-way joins Q5 and Q7. *)
let dashboard_templates = [ "Q3"; "Q10"; "Q3"; "Q10"; "Q5"; "Q7" ]

let dashboard p ~seed =
  let rng = rng_of ~seed ~salt:3 in
  let texts =
    List.concat (List.init 2 (fun _ -> List.map (select p rng) dashboard_templates))
  in
  (* seeded order, fixed for the run *)
  Array.of_list (shuffle rng texts)

let orders_per_batch = 25
let reads_per_round = 3
let analyze_every = 8

(* Round r: three dashboard queries, then its writes — an INSERT batch
   into orders and lineitem on even rounds, a DELETE of the oldest
   inserted batch on odd rounds, and on every [analyze_every]th round
   (an odd one) an ANALYZE after the DELETE (lineitem and orders
   alternately).  Every INSERT batch is deleted on the next round, so
   the tables stay the same size however long the stream runs. *)
let reporting_stream p dml ~seed =
  let rng = rng_of ~seed ~salt:4 in
  let dash = dashboard p ~seed in
  let round = ref 0 in
  let next_key = ref dml.first_free_key in
  let pending = Queue.create () in
  let buffer = Queue.create () in
  let insert_batch () =
    let lo = !next_key in
    next_key := lo + orders_per_batch;
    Queue.push (lo, !next_key) pending;
    let orders =
      List.init orders_per_batch (fun i ->
          let t = Array.copy (pick rng dml.orders) in
          t.(0) <- Value.Int (lo + i);
          t)
    in
    let lines =
      List.concat_map
        (fun i ->
           List.init (1 + Random.State.int rng 4) (fun ln ->
               let t = Array.copy (pick rng dml.lineitems) in
               t.(0) <- Value.Int (lo + i);
               t.(3) <- Value.Int (ln + 1);
               t))
        (List.init orders_per_batch Fun.id)
    in
    [ { label = "insert"; kind = Insert;
        sql = "insert into orders values " ^ values_sql orders };
      { label = "insert"; kind = Insert;
        sql = "insert into lineitem values " ^ values_sql lines } ]
  in
  let delete_batch () =
    match Queue.take_opt pending with
    | None -> []
    | Some (lo, hi) ->
      [ { label = "delete"; kind = Delete;
          sql = Printf.sprintf
              "delete from lineitem where l_orderkey >= %d and l_orderkey < %d" lo hi };
        { label = "delete"; kind = Delete;
          sql = Printf.sprintf
              "delete from orders where o_orderkey >= %d and o_orderkey < %d" lo hi } ]
  in
  let fill () =
    let r = !round in
    incr round;
    for j = 0 to reads_per_round - 1 do
      Queue.push dash.(((r * reads_per_round) + j) mod Array.length dash) buffer
    done;
    let writes =
      if r mod 2 = 0 then insert_batch ()
      else
        delete_batch ()
        @
        if r mod analyze_every = analyze_every - 1 then
          let table = if r / analyze_every mod 2 = 0 then "lineitem" else "orders" in
          [ { label = "analyze"; kind = Analyze; sql = "analyze " ^ table } ]
        else []
    in
    List.iter (fun s -> Queue.push s buffer) writes
  in
  fun () ->
    if Queue.is_empty buffer then fill ();
    Queue.pop buffer

(* --- the service arrival stream ---------------------------------------- *)

type arrival = { tenant : string; at_ms : float; stmt : stmt }

let interactive_templates = [| "Q1"; "Q3"; "Q6"; "Q10" |]
let batch_templates = [| "Q5"; "Q7"; "Q10" |]

(* The service's statement texts: parameter sets of every template either
   tenant sends, drawn once per seed.  Enough of them that a run's
   episodes average over many, so that its latency figures depend little
   on which sets a seed happened to draw. *)
let variants_per_template = 24

let service_texts p ~seed =
  let rng = rng_of ~seed ~salt:5 in
  List.map
    (fun name -> (name, Array.init variants_per_template (fun _ -> select p rng name)))
    (List.sort_uniq compare
       (Array.to_list interactive_templates @ Array.to_list batch_templates))

(* Episode [episode]'s [n] arrivals: a Poisson process at [rate_per_s]
   (simulated seconds), three interactive statements from tenant web for
   every batch statement from tenant etl.  Each tenant's templates appear
   equally often, in seeded order, so that every episode offers the same
   mix of work. *)
let arrivals texts ~seed ~episode ~n ~rate_per_s =
  let rng = Random.State.make [| seed; 6; episode |] in
  let is_web i = i mod 4 <> 3 in
  let n_web = List.length (List.filter is_web (List.init n Fun.id)) in
  let web = ref (balanced rng interactive_templates n_web) in
  let etl = ref (balanced rng batch_templates (n - n_web)) in
  let take r = match !r with x :: rest -> r := rest; x | [] -> assert false in
  let t = ref 0.0 in
  List.init n (fun i ->
      let gap = -.log (1.0 -. Random.State.float rng 1.0) /. rate_per_s in
      t := !t +. (1000.0 *. gap);
      let web_stmt = is_web i in
      let name = if web_stmt then take web else take etl in
      { tenant = (if web_stmt then "web" else "etl"); at_ms = !t;
        stmt = pick rng (List.assoc name texts) })

let dump path stmts =
  let oc = open_out path in
  List.iteri
    (fun i s ->
       Printf.fprintf oc "-- %d %s %s\n%s;\n" i (kind_to_string s.kind) s.label s.sql)
    stmts;
  close_out oc
