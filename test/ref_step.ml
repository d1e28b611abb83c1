(* The reference semantics of one instruction: a plain [match] over
   [Insn.t], evaluated in the current machine state on every call.  The
   VM itself runs instructions compiled by [Vm.compile]; property tests
   hold every compiled op to this model. *)

open Jt_isa
open Jt_vm
open Jt_vm.Vm

let eval_mem t ~next_pc (m : Insn.mem) =
  let base =
    match m.base with
    | Some (Insn.Breg r) -> get t r
    | Some Insn.Bpc -> next_pc
    | None -> 0
  in
  let index = match m.index with Some r -> get t r * m.scale | None -> 0 in
  Word.of_int (base + index + m.disp)

let eval_operand t = function Insn.Reg r -> get t r | Insn.Imm v -> v

let push t v =
  let sp = Word.sub (get t Reg.sp) 4 in
  set t Reg.sp sp;
  Jt_mem.Memory.write32 t.mem sp v

let pop t =
  let sp = get t Reg.sp in
  let v = Jt_mem.Memory.read32 t.mem sp in
  set t Reg.sp (Word.add sp 4);
  v

let sign w = w land 0x8000_0000 <> 0

let flags_add t a b r =
  Flags.set_arith t.flags ~result:r
    ~carry:(a + b > Word.mask)
    ~overflow:(sign a = sign b && sign r <> sign a)

let flags_sub t a b r =
  Flags.set_arith t.flags ~result:r ~carry:(a < b)
    ~overflow:(sign a <> sign b && sign r <> sign a)

let eval_cond t (c : Insn.cond) =
  let f = t.flags in
  match c with
  | Insn.Eq -> f.zf
  | Ne -> not f.zf
  | Lt -> f.sf <> f.of_
  | Ge -> f.sf = f.of_
  | Le -> f.zf || f.sf <> f.of_
  | Gt -> (not f.zf) && f.sf = f.of_
  | Ult -> f.cf
  | Uge -> not f.cf
  | Ule -> f.cf || f.zf
  | Ugt -> (not f.cf) && not f.zf

let do_syscall = syscall

let step_decoded (t : Vm.t) ~at (i : Insn.t) len =
  let next_pc = at + len in
  t.icount <- t.icount + 1;
  t.cycles <- t.cycles + Cost.insn i;
  t.pc <- next_pc;
  match i with
  | Insn.Nop -> ()
  | Halt -> t.status <- Fault (Halted at)
  | Mov (rd, src) -> set t rd (eval_operand t src)
  | Lea (rd, m) -> set t rd (eval_mem t ~next_pc m)
  | Load (w, rd, m) ->
    let a = eval_mem t ~next_pc m in
    set t rd (Jt_mem.Memory.read t.mem a ~width:(Insn.width_bytes w))
  | Store (w, m, src) ->
    let a = eval_mem t ~next_pc m in
    Jt_mem.Memory.write t.mem a ~width:(Insn.width_bytes w) (eval_operand t src)
  | Binop (op, rd, src) -> (
    let a = get t rd and b = eval_operand t src in
    match op with
    | Insn.Add ->
      let r = Word.add a b in
      set t rd r;
      flags_add t a b r
    | Sub ->
      let r = Word.sub a b in
      set t rd r;
      flags_sub t a b r
    | And ->
      let r = Word.logand a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Or ->
      let r = Word.logor a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Xor ->
      let r = Word.logxor a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Shl ->
      let r = Word.shl a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Shr ->
      let r = Word.shr a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Sar ->
      let r = Word.sar a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Mul ->
      let r = Word.mul a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r)
  | Neg r ->
    let a = get t r in
    let v = Word.neg a in
    set t r v;
    flags_sub t 0 a v
  | Not r ->
    set t r (Word.lognot (get t r))
    (* x86 NOT does not affect flags *)
  | Cmp (ra, src) ->
    let a = get t ra and b = eval_operand t src in
    flags_sub t a b (Word.sub a b)
  | Test (ra, src) ->
    let a = get t ra and b = eval_operand t src in
    Flags.set_logic t.flags ~result:(Word.logand a b)
  | Push src -> push t (eval_operand t src)
  | Pop rd -> set t rd (pop t)
  | Jmp target -> t.pc <- target
  | Jcc (c, target) -> if eval_cond t c then t.pc <- target
  | Jmp_ind (Some r, _) -> t.pc <- get t r
  | Jmp_ind (None, Some m) -> t.pc <- Jt_mem.Memory.read32 t.mem (eval_mem t ~next_pc m)
  | Jmp_ind (None, None) -> t.status <- Fault (Decode_fault at)
  | Call target ->
    push t next_pc;
    t.pc <- target
  | Call_ind (Some r, _) ->
    push t next_pc;
    t.pc <- get t r
  | Call_ind (None, Some m) ->
    let target = Jt_mem.Memory.read32 t.mem (eval_mem t ~next_pc m) in
    push t next_pc;
    t.pc <- target
  | Call_ind (None, None) -> t.status <- Fault (Decode_fault at)
  | Ret -> t.pc <- pop t
  | Load_canary rd -> set t rd t.canary
  | Syscall n -> do_syscall t n


(* The reference loop: the bytes at the PC are decoded afresh at every
   step, so a store into code is seen by the next instruction that
   reaches it.  [on_step pc] runs before each instruction. *)
let run ?(on_step = ignore) ?(fuel = 200_000_000) (t : Vm.t) =
  let budget = t.icount + fuel in
  while Vm.is_running t do
    if t.icount >= budget then t.status <- Fault Out_of_fuel
    else if t.pc = Vm.sentinel then Vm.advance_phase t
    else begin
      let at = t.pc in
      let b =
        Bytes.init Decode.max_len (fun k ->
            Char.chr (Jt_mem.Memory.read8 t.mem (at + k)))
      in
      match Decode.instr b ~pos:0 ~lim:Decode.max_len ~at with
      | Some (i, len) ->
        on_step at;
        step_decoded t ~at i len
      | None -> t.status <- Fault (Decode_fault at)
    end
  done
