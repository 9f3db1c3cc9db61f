(* Order statistics over wall-clock and simulated samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> 0.0
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail rule: the 10th-largest sample, i.e. the highest percentile
   that still has ten samples at or beyond it.  Fewer than ten samples
   support no such percentile; the largest one stands in. *)
let tail_rank = 10

let tail = function
  | [] -> 0.0
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n < tail_rank then a.(n - 1) else a.(n - tail_rank)

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

(* [ratio num den] is 0 when nothing was attempted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
