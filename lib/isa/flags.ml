type flag = Zf | Sf | Cf | Of

type set = int

let bit = function Zf -> 1 | Sf -> 2 | Cf -> 4 | Of -> 8

let empty = 0
let all = 15
let singleton f = bit f
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let mem f s = s land bit f <> 0
let is_empty s = s = 0
let equal = Int.equal
let of_mask m = m land all
let of_list fs = List.fold_left (fun acc f -> acc lor bit f) 0 fs

let to_list s =
  List.filter (fun f -> mem f s) [ Zf; Sf; Cf; Of ]

let flag_name = function Zf -> "zf" | Sf -> "sf" | Cf -> "cf" | Of -> "of"

let pp ppf s =
  if is_empty s then Format.pp_print_string ppf "{}"
  else
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map flag_name (to_list s)))

type state = { mutable zf : bool; mutable sf : bool; mutable cf : bool; mutable of_ : bool }

let create () = { zf = false; sf = false; cf = false; of_ = false }
let copy s = { zf = s.zf; sf = s.sf; cf = s.cf; of_ = s.of_ }

let get s = function Zf -> s.zf | Sf -> s.sf | Cf -> s.cf | Of -> s.of_

let set_arith s ~result ~carry ~overflow =
  s.zf <- result = 0;
  s.sf <- result land 0x8000_0000 <> 0;
  s.cf <- carry;
  s.of_ <- overflow

let set_logic s ~result =
  s.zf <- result = 0;
  s.sf <- result land 0x8000_0000 <> 0;
  s.cf <- false;
  s.of_ <- false

let pack s =
  (if s.zf then 1 else 0)
  lor (if s.sf then 2 else 0)
  lor (if s.cf then 4 else 0)
  lor if s.of_ then 8 else 0

let unpack s v =
  s.zf <- v land 1 <> 0;
  s.sf <- v land 2 <> 0;
  s.cf <- v land 4 <> 0;
  s.of_ <- v land 8 <> 0
