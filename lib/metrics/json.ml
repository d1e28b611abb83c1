type t =
  | Int of int
  | Float of int * float
  | Bool of bool
  | String of string
  | Null
  | List of t list
  | Obj of (string * t) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec inline = function
  | Int i -> string_of_int i
  | Float (digits, x) when Float.is_finite x -> Printf.sprintf "%.*f" digits x
  | Float _ | Null -> "null"
  | Bool b -> string_of_bool b
  | String s -> quote s
  | List l -> "[" ^ String.concat ", " (List.map inline l) ^ "]"
  | Obj members ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ inline v) members)
    ^ "}"

let rows indent = function
  | [] -> "[]"
  | l ->
    "[\n"
    ^ String.concat ",\n" (List.map (fun v -> indent ^ "  " ^ inline v) l)
    ^ "\n" ^ indent ^ "]"

let to_string = function
  | Obj (_ :: _ as members) ->
    let member (k, v) =
      "  " ^ quote k ^ ": "
      ^ match v with List l -> rows "  " l | v -> inline v
    in
    "{\n" ^ String.concat ",\n" (List.map member members) ^ "\n}"
  | List l -> rows "" l
  | v -> inline v
