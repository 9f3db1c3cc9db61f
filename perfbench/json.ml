(* A minimal JSON printer for the result line and the span dump. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec write b = function
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    (* every digit as measured; JSON has no NaN or infinity *)
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char b ',';
         write b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_string b ", ";
         write b (String k);
         Buffer.add_string b ": ";
         write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* Metric names as BENCHMARK.json allows them: [A-Za-z0-9_.-]+, starting
   with a letter or digit, at most 64 characters. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
      | _ -> false)
  && String.for_all ok_char s
