open Insn

exception Invalid

let max_len = 16

let binop_of_index = function
  | 0 -> Add | 1 -> Sub | 2 -> And | 3 -> Or | 4 -> Xor
  | 5 -> Shl | 6 -> Shr | 7 -> Sar | 8 -> Mul
  | _ -> raise Invalid

let cond_of_index = function
  | 0 -> Eq | 1 -> Ne | 2 -> Lt | 3 -> Le | 4 -> Gt | 5 -> Ge
  | 6 -> Ult | 7 -> Ule | 8 -> Ugt | 9 -> Uge
  | _ -> raise Invalid

(* A cursor over a byte buffer: [base] is the instruction's first byte
   in [b], [off] counts the bytes consumed so far (the caller learns the
   instruction length from it), and bytes from [lim] on are unreadable. *)
type cursor = { b : Bytes.t; base : int; lim : int; at : int; mutable off : int }

let byte c =
  let p = c.base + c.off in
  if p >= c.lim then raise Invalid;
  c.off <- c.off + 1;
  Char.code (Bytes.unsafe_get c.b p)

let reg c =
  let v = byte c in
  if v >= Reg.count then raise Invalid;
  Reg.of_index v

let u32 c =
  let p = c.base + c.off in
  if p + 4 > c.lim then raise Invalid;
  c.off <- c.off + 4;
  Int32.to_int (Bytes.get_int32_le c.b p) land 0xFFFF_FFFF

let width c =
  match byte c with
  | 1 -> W1
  | 2 -> W2
  | 4 -> W4
  | _ -> raise Invalid

let mem c =
  let flag = byte c in
  if flag land lnot 0x1F <> 0 then raise Invalid;
  let has_base = flag land 1 <> 0 in
  let base_is_pc = flag land 2 <> 0 in
  if has_base && base_is_pc then raise Invalid;
  let base =
    if has_base then Some (Breg (reg c))
    else if base_is_pc then Some Bpc
    else None
  in
  let index = if flag land 4 <> 0 then Some (reg c) else None in
  let scale = 1 lsl ((flag lsr 3) land 3) in
  let disp = u32 c in
  { base; index; scale; disp }

let decode c =
  let rel32 () =
    let rel = u32 c in
    (* Target is relative to the end of the instruction, which is exactly
       the current cursor position since rel32 is always the final field. *)
    Word.add (Word.of_int (c.at + c.off)) rel
  in
  let op = byte c in
  match op with
  | 0x01 -> Nop
  | 0x02 -> Halt
  | 0x03 -> Ret
  | 0x04 -> Syscall (byte c)
  | 0x05 -> Load_canary (reg c)
  | 0x06 ->
    let rd = reg c in
    Mov (rd, Reg (reg c))
  | 0x07 ->
    let rd = reg c in
    Mov (rd, Imm (u32 c))
  | 0x08 ->
    let rd = reg c in
    Lea (rd, mem c)
  | 0x09 ->
    let w = width c in
    let rd = reg c in
    Load (w, rd, mem c)
  | 0x0A ->
    let w = width c in
    let rs = reg c in
    Store (w, mem c, Reg rs)
  | 0x0B ->
    let w = width c in
    let v = u32 c in
    Store (w, mem c, Imm v)
  | _ when op >= 0x10 && op <= 0x18 ->
    let rd = reg c in
    Binop (binop_of_index (op - 0x10), rd, Reg (reg c))
  | _ when op >= 0x20 && op <= 0x28 ->
    let rd = reg c in
    Binop (binop_of_index (op - 0x20), rd, Imm (u32 c))
  | 0x29 -> Neg (reg c)
  | 0x2A -> Not (reg c)
  | 0x30 ->
    let ra = reg c in
    Cmp (ra, Reg (reg c))
  | 0x31 ->
    let ra = reg c in
    Cmp (ra, Imm (u32 c))
  | 0x32 ->
    let ra = reg c in
    Test (ra, Reg (reg c))
  | 0x33 ->
    let ra = reg c in
    Test (ra, Imm (u32 c))
  | 0x34 -> Push (Reg (reg c))
  | 0x35 -> Push (Imm (u32 c))
  | 0x36 -> Pop (reg c)
  | 0x40 -> Jmp (rel32 ())
  | _ when op >= 0x41 && op <= 0x4A ->
    let c' = cond_of_index (op - 0x41) in
    Jcc (c', rel32 ())
  | 0x4B -> jmp_ind_reg (reg c)
  | 0x4C -> jmp_ind_mem (mem c)
  | 0x4D -> Call (rel32 ())
  | 0x4E -> call_ind_reg (reg c)
  | 0x4F -> call_ind_mem (mem c)
  | _ -> raise Invalid

let instr b ~pos ~lim ~at =
  if pos < 0 || lim > Bytes.length b then invalid_arg "Decode.instr";
  let c = { b; base = pos; lim; at; off = 0 } in
  match decode c with
  | i -> Some (i, c.off)
  | exception Invalid -> None
