open Jt_isa

let insn : Insn.t -> int = function
  | Insn.Nop -> 1
  | Halt -> 1
  | Mov _ | Lea _ -> 1
  | Load _ -> 2
  | Store _ -> 2
  | Binop (Mul, _, _) -> 3
  | Binop _ -> 1
  | Neg _ | Not _ -> 1
  | Cmp _ | Test _ -> 1
  | Push _ | Pop _ -> 2
  | Jmp _ | Jcc _ -> 1
  | Jmp_ind _ -> 2
  | Call _ | Call_ind _ -> 2
  | Ret -> 2
  | Load_canary _ -> 1
  | Syscall _ -> 20

let dbt_translate_block = 60
let dbt_translate_insn = 12
let dbt_indirect_lookup = 8
let dbt_ibl_hit = 2
let dbt_clean_call = 40
let spill_reg = 1
let save_restore_flags = 2

let asan_check = 13
let asan_canary_op = 3

let valgrind_per_insn = 9
let valgrind_mem_check = 16

let cfi_forward_check = 18
let cfi_shadow_push = 4
let cfi_shadow_pop = 6
let bincfi_translation = 14
let lockdown_per_block = 0
let lockdown_indirect = 4
