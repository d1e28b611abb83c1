type width = W1 | W2 | W4

type base = Breg of Reg.t | Bpc

type mem = {
  base : base option;
  index : Reg.t option;
  scale : int;
  disp : Word.t;
}

type operand = Reg of Reg.t | Imm of Word.t

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Sar | Mul

type cond = Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule | Ugt | Uge

type t =
  | Nop
  | Halt
  | Mov of Reg.t * operand
  | Lea of Reg.t * mem
  | Load of width * Reg.t * mem
  | Store of width * mem * operand
  | Binop of binop * Reg.t * operand
  | Neg of Reg.t
  | Not of Reg.t
  | Cmp of Reg.t * operand
  | Test of Reg.t * operand
  | Push of operand
  | Pop of Reg.t
  | Jmp of Word.t
  | Jcc of cond * Word.t
  | Jmp_ind of Reg.t option * mem option
  | Call of Word.t
  | Call_ind of Reg.t option * mem option
  | Ret
  | Load_canary of Reg.t
  | Syscall of int

let jmp_ind_reg r = Jmp_ind (Some r, None)
let jmp_ind_mem m = Jmp_ind (None, Some m)
let call_ind_reg r = Call_ind (Some r, None)
let call_ind_mem m = Call_ind (None, Some m)

let mem_abs addr = { base = None; index = None; scale = 1; disp = Word.of_int addr }

let mem_base ?(disp = 0) r =
  { base = Some (Breg r); index = None; scale = 1; disp = Word.of_int disp }

let mem_base_index ?(disp = 0) ?(scale = 1) b i =
  { base = Some (Breg b); index = Some i; scale; disp = Word.of_int disp }

let mem_pcrel disp = { base = Some Bpc; index = None; scale = 1; disp = Word.of_int disp }

let width_bytes = function W1 -> 1 | W2 -> 2 | W4 -> 4

type cti_kind =
  | Cti_jmp of Word.t
  | Cti_jcc of cond * Word.t
  | Cti_jmp_ind
  | Cti_call of Word.t
  | Cti_call_ind
  | Cti_ret
  | Cti_halt
  | Cti_syscall

let cti_kind = function
  | Jmp t -> Some (Cti_jmp t)
  | Jcc (c, t) -> Some (Cti_jcc (c, t))
  | Jmp_ind _ -> Some Cti_jmp_ind
  | Call t -> Some (Cti_call t)
  | Call_ind _ -> Some Cti_call_ind
  | Ret -> Some Cti_ret
  | Halt -> Some Cti_halt
  | Syscall _ -> Some Cti_syscall
  | Nop | Mov _ | Lea _ | Load _ | Store _ | Binop _ | Neg _ | Not _ | Cmp _
  | Test _ | Push _ | Pop _ | Load_canary _ ->
    None

let ends_block i =
  match cti_kind i with
  | None | Some Cti_syscall -> false
  | Some
      ( Cti_jmp _ | Cti_jcc _ | Cti_jmp_ind | Cti_call _ | Cti_call_ind
      | Cti_ret | Cti_halt ) ->
    true

let mem_regs m =
  let base = match m.base with Some (Breg r) -> [ r ] | Some Bpc | None -> [] in
  match m.index with Some r -> r :: base | None -> base

let operand_regs = function Reg r -> [ r ] | Imm _ -> []

(* Syscall argument convention: arguments in r0..r2, result in r0. *)
let syscall_uses = [ Reg.r0; Reg.r1; Reg.r2 ]

let uses = function
  | Nop | Halt | Jmp _ | Jcc _ -> []
  | Mov (_, src) -> operand_regs src
  | Lea (_, m) | Load (_, _, m) -> mem_regs m
  | Store (_, m, src) -> operand_regs src @ mem_regs m
  | Binop (_, rd, src) -> rd :: operand_regs src
  | Neg r | Not r -> [ r ]
  | Cmp (a, b) | Test (a, b) -> a :: operand_regs b
  | Push src -> Reg.sp :: operand_regs src
  | Pop _ -> [ Reg.sp ]
  | Jmp_ind (r, m) ->
    (match r with Some r -> [ r ] | None -> [])
    @ (match m with Some m -> mem_regs m | None -> [])
  | Call _ -> [ Reg.sp ]
  | Call_ind (r, m) ->
    Reg.sp
    :: ((match r with Some r -> [ r ] | None -> [])
       @ match m with Some m -> mem_regs m | None -> [])
  | Ret -> [ Reg.sp ]
  | Load_canary _ -> []
  | Syscall _ -> syscall_uses

let defs = function
  | Nop | Halt | Jmp _ | Jcc _ | Jmp_ind _ | Store _ | Cmp _ | Test _ -> []
  | Mov (rd, _) | Lea (rd, _) | Load (_, rd, _) | Binop (_, rd, _)
  | Neg rd | Not rd | Load_canary rd ->
    [ rd ]
  | Push _ -> [ Reg.sp ]
  | Pop rd -> [ rd; Reg.sp ]
  | Call _ | Call_ind _ -> [ Reg.sp ]
  | Ret -> [ Reg.sp ]
  | Syscall _ -> [ Reg.r0 ]

(* [uses]/[defs] as register bit masks ([1 lsl Reg.index r] per
   register), built without the lists: the dense form liveness and the
   other per-instruction passes fold over. *)
let bit r = 1 lsl Reg.index r

let mem_mask m =
  (match m.base with Some (Breg r) -> bit r | Some Bpc | None -> 0)
  lor match m.index with Some r -> bit r | None -> 0

let operand_mask = function Reg r -> bit r | Imm _ -> 0

let use_mask = function
  | Nop | Halt | Jmp _ | Jcc _ | Load_canary _ -> 0
  | Mov (_, src) -> operand_mask src
  | Lea (_, m) | Load (_, _, m) -> mem_mask m
  | Store (_, m, src) -> operand_mask src lor mem_mask m
  | Binop (_, rd, src) -> bit rd lor operand_mask src
  | Neg r | Not r -> bit r
  | Cmp (a, b) | Test (a, b) -> bit a lor operand_mask b
  | Push src -> bit Reg.sp lor operand_mask src
  | Pop _ | Call _ | Ret -> bit Reg.sp
  | Jmp_ind (r, m) ->
    (match r with Some r -> bit r | None -> 0)
    lor (match m with Some m -> mem_mask m | None -> 0)
  | Call_ind (r, m) ->
    bit Reg.sp
    lor (match r with Some r -> bit r | None -> 0)
    lor (match m with Some m -> mem_mask m | None -> 0)
  | Syscall _ -> bit Reg.r0 lor bit Reg.r1 lor bit Reg.r2

let def_mask = function
  | Nop | Halt | Jmp _ | Jcc _ | Jmp_ind _ | Store _ | Cmp _ | Test _ -> 0
  | Mov (rd, _) | Lea (rd, _) | Load (_, rd, _) | Binop (_, rd, _)
  | Neg rd | Not rd | Load_canary rd ->
    bit rd
  | Pop rd -> bit rd lor bit Reg.sp
  | Push _ | Call _ | Call_ind _ | Ret -> bit Reg.sp
  | Syscall _ -> bit Reg.r0

let flags_def = function
  | Binop _ | Neg _ | Not _ | Cmp _ | Test _ -> Flags.all
  | Nop | Halt | Mov _ | Lea _ | Load _ | Store _ | Push _ | Pop _ | Jmp _
  | Jcc _ | Jmp_ind _ | Call _ | Call_ind _ | Ret | Load_canary _ | Syscall _ ->
    Flags.empty

let cond_flags = function
  | Eq | Ne -> Flags.of_list [ Flags.Zf ]
  | Lt | Ge -> Flags.of_list [ Flags.Sf; Flags.Of ]
  | Le | Gt -> Flags.of_list [ Flags.Zf; Flags.Sf; Flags.Of ]
  | Ult | Uge -> Flags.of_list [ Flags.Cf ]
  | Ule | Ugt -> Flags.of_list [ Flags.Cf; Flags.Zf ]

let flags_use = function
  | Jcc (c, _) -> cond_flags c
  | Nop | Halt | Mov _ | Lea _ | Load _ | Store _ | Binop _ | Neg _ | Not _
  | Cmp _ | Test _ | Push _ | Pop _ | Jmp _ | Jmp_ind _ | Call _ | Call_ind _
  | Ret | Load_canary _ | Syscall _ ->
    Flags.empty

let pp_base ppf = function
  | Breg r -> Reg.pp ppf r
  | Bpc -> Format.pp_print_string ppf "pc"

let pp_mem ppf m =
  let open Format in
  fprintf ppf "[";
  let sep = ref false in
  let plus () = if !sep then fprintf ppf "+" in
  (match m.base with
  | Some b ->
    pp_base ppf b;
    sep := true
  | None -> ());
  (match m.index with
  | Some r ->
    plus ();
    fprintf ppf "%a*%d" Reg.pp r m.scale;
    sep := true
  | None -> ());
  if m.disp <> 0 || not !sep then begin
    plus ();
    fprintf ppf "%a" Word.pp m.disp
  end;
  fprintf ppf "]"

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm w -> Word.pp ppf w

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Mul -> "mul"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"

let width_name = function W1 -> "1" | W2 -> "2" | W4 -> "4"

let pp ppf i =
  let open Format in
  match i with
  | Nop -> pp_print_string ppf "nop"
  | Halt -> pp_print_string ppf "halt"
  | Mov (rd, src) -> fprintf ppf "mov %a, %a" Reg.pp rd pp_operand src
  | Lea (rd, m) -> fprintf ppf "lea %a, %a" Reg.pp rd pp_mem m
  | Load (w, rd, m) -> fprintf ppf "ld%s %a, %a" (width_name w) Reg.pp rd pp_mem m
  | Store (w, m, src) ->
    fprintf ppf "st%s %a, %a" (width_name w) pp_mem m pp_operand src
  | Binop (op, rd, src) ->
    fprintf ppf "%s %a, %a" (binop_name op) Reg.pp rd pp_operand src
  | Neg r -> fprintf ppf "neg %a" Reg.pp r
  | Not r -> fprintf ppf "not %a" Reg.pp r
  | Cmp (a, b) -> fprintf ppf "cmp %a, %a" Reg.pp a pp_operand b
  | Test (a, b) -> fprintf ppf "test %a, %a" Reg.pp a pp_operand b
  | Push src -> fprintf ppf "push %a" pp_operand src
  | Pop rd -> fprintf ppf "pop %a" Reg.pp rd
  | Jmp t -> fprintf ppf "jmp %a" Word.pp t
  | Jcc (c, t) -> fprintf ppf "j%s %a" (cond_name c) Word.pp t
  | Jmp_ind (Some r, _) -> fprintf ppf "jmp *%a" Reg.pp r
  | Jmp_ind (None, Some m) -> fprintf ppf "jmp *%a" pp_mem m
  | Jmp_ind (None, None) -> pp_print_string ppf "jmp *<invalid>"
  | Call t -> fprintf ppf "call %a" Word.pp t
  | Call_ind (Some r, _) -> fprintf ppf "call *%a" Reg.pp r
  | Call_ind (None, Some m) -> fprintf ppf "call *%a" pp_mem m
  | Call_ind (None, None) -> pp_print_string ppf "call *<invalid>"
  | Ret -> pp_print_string ppf "ret"
  | Load_canary rd -> fprintf ppf "ldcanary %a" Reg.pp rd
  | Syscall n -> fprintf ppf "syscall %d" n

let to_string i = Format.asprintf "%a" pp i
