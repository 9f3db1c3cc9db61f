(* Wall-clock spans recorded from outside the library: each wraps one
   call into a layer's public function.  Spans are kept in memory and
   written out once the run ends. *)

type span = {
  id : int;
  name : string;       (* "<layer>.<what>", e.g. "opt.optimize" *)
  qid : int;           (* statement the span belongs to *)
  parent : int;        (* enclosing span, -1 at the root *)
  start_s : float;
  mutable end_s : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;   (* open spans, innermost first *)
  mutable next : int;
}

let create () = { spans = []; stack = []; next = 0 }

let now = Unix.gettimeofday

let with_span t name ~qid f =
  let s =
    { id = t.next; name; qid;
      parent = (match t.stack with p :: _ -> p | [] -> -1);
      start_s = now (); end_s = nan }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s.id :: t.stack;
  let close () =
    s.end_s <- now ();
    t.stack <- List.tl t.stack
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

let all t = List.rev t.spans

let duration_ms s = 1000.0 *. (s.end_s -. s.start_s)

(* Durations in ms of every span called [name]. *)
let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration_ms s) else None)
    (all t)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time: a span's duration minus the part its children cover.
   Children are strictly nested (calls are synchronous), so that part is
   the sum of their durations. *)
let self_ms t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child s.parent
           (duration_ms s
            +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s ->
       (s, duration_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (all t)

(* Self time summed per layer, in first-seen order. *)
let layer_self_ms t =
  let acc = ref [] in
  List.iter
    (fun (s, self) ->
       let l = layer s.name in
       match List.assoc_opt l !acc with
       | Some r -> r := !r +. self
       | None -> acc := (l, ref self) :: !acc)
    (self_ms t);
  List.rev_map (fun (l, r) -> (l, !r)) !acc

let to_json t =
  let base = match all t with s :: _ -> s.start_s | [] -> 0.0 in
  let us x = Json.Float (1e6 *. (x -. base)) in
  Json.Obj
    [ ( "layer_self_ms",
        Json.Obj (List.map (fun (l, ms) -> (l, Json.Float ms)) (layer_self_ms t)) );
      ( "spans",
        Json.List
          (List.map
             (fun (s, self) ->
                Json.Obj
                  [ ("id", Json.Int s.id);
                    ("name", Json.String s.name);
                    ("qid", Json.Int s.qid);
                    ("parent", Json.Int s.parent);
                    ("start_us", us s.start_s);
                    ("end_us", us s.end_s);
                    ("self_ms", Json.Float self) ])
             (self_ms t)) ) ]

let write_file t path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc
