(* QCheck generators of random instructions, shared by the ISA codec
   properties and the VM's compiled-op properties. *)

open Jt_isa

let gen_reg = QCheck2.Gen.map Reg.of_index (QCheck2.Gen.int_bound (Reg.count - 1))
let gen_imm = QCheck2.Gen.map Word.of_int (QCheck2.Gen.int_bound Word.mask)

let gen_mem =
  let open QCheck2.Gen in
  let* base =
    oneof
      [
        return None;
        map (fun r -> Some (Insn.Breg r)) gen_reg;
        return (Some Insn.Bpc);
      ]
  in
  let* index = oneof [ return None; map Option.some gen_reg ] in
  let* scale = oneofl [ 1; 2; 4; 8 ] in
  let* disp = gen_imm in
  return { Insn.base; index; scale; disp }

let gen_operand =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun r -> Insn.Reg r) gen_reg;
      QCheck2.Gen.map (fun v -> Insn.Imm v) gen_imm;
    ]

let gen_insn =
  let open QCheck2.Gen in
  let open Insn in
  oneof
    [
      return Nop;
      return Halt;
      return Ret;
      map (fun n -> Syscall (n land 0xFF)) small_nat;
      map (fun r -> Load_canary r) gen_reg;
      map2 (fun r o -> Mov (r, o)) gen_reg gen_operand;
      map2 (fun r m -> Lea (r, m)) gen_reg gen_mem;
      map3 (fun w r m -> Load (w, r, m)) (oneofl [ W1; W2; W4 ]) gen_reg gen_mem;
      map3
        (fun w m o -> Store (w, m, o))
        (oneofl [ W1; W2; W4 ])
        gen_mem gen_operand;
      map3
        (fun op r o -> Binop (op, r, o))
        (oneofl [ Add; Sub; And; Or; Xor; Shl; Shr; Sar; Mul ])
        gen_reg gen_operand;
      map (fun r -> Neg r) gen_reg;
      map (fun r -> Not r) gen_reg;
      map2 (fun r o -> Cmp (r, o)) gen_reg gen_operand;
      map2 (fun r o -> Test (r, o)) gen_reg gen_operand;
      map (fun o -> Push o) gen_operand;
      map (fun r -> Pop r) gen_reg;
      map (fun t -> Jmp t) gen_imm;
      map2 (fun c t -> Jcc (c, t)) (oneofl [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]) gen_imm;
      map (fun t -> Call t) gen_imm;
      map Insn.jmp_ind_reg gen_reg;
      map Insn.jmp_ind_mem gen_mem;
      map Insn.call_ind_reg gen_reg;
      map Insn.call_ind_mem gen_mem;
    ]
