open Jt_isa
open Jt_disasm.Disasm

(* Conservative value-set / interval analysis (a small-scale take on the
   VSA of Balakrishnan & Reps, via the Macaw-style dataflow framework in
   [Dataflow]).  Each register holds one of:

     Bot        unreachable / no value yet
     Cst  itv   a 32-bit word whose signed value lies in the interval —
                constants, global/absolute addresses with offsets
     Sprel itv  function-entry [sp] plus an offset in the interval —
                frame pointers and derived frame addresses
     Top        anything

   All arithmetic saturates to Top as soon as an interval could leave the
   signed 32-bit range, so wraparound never has to be modelled; anything
   unproven (loads, indirect calls, convention-breaking modules) goes
   straight to Top. *)

type itv = { lo : int; hi : int }

type value = Bot | Cst of itv | Sprel of itv | Top

let i32_min = -0x8000_0000
let i32_max = 0x7FFF_FFFF

let singleton v = { lo = v; hi = v }

(* Interval constructors saturate out-of-range bounds to Top: concrete
   machine arithmetic wraps mod 2^32, and an interval that stayed inside
   the signed range is only sound while no wrap can have occurred. *)
let cst lo hi = if lo < i32_min || hi > i32_max then Top else Cst { lo; hi }
let sprel lo hi = if lo < i32_min || hi > i32_max then Top else Sprel { lo; hi }

let itv_join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let itv_widen prev next =
  {
    lo = (if next.lo < prev.lo then i32_min else prev.lo);
    hi = (if next.hi > prev.hi then i32_max else prev.hi);
  }

let itv_leq a b = b.lo <= a.lo && a.hi <= b.hi

let join_value a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Top, _ | _, Top -> Top
  | Cst x, Cst y -> Cst (itv_join x y)
  | Sprel x, Sprel y -> Sprel (itv_join x y)
  | Cst _, Sprel _ | Sprel _, Cst _ -> Top

let widen_value prev next =
  match (prev, next) with
  | Bot, v | v, Bot -> v
  | Top, _ | _, Top -> Top
  | Cst x, Cst y -> Cst (itv_widen x y)
  | Sprel x, Sprel y -> Sprel (itv_widen x y)
  | Cst _, Sprel _ | Sprel _, Cst _ -> Top

let leq_value a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Top -> true
  | Top, _ -> false
  | _, Bot -> false
  | Cst x, Cst y -> itv_leq x y
  | Sprel x, Sprel y -> itv_leq x y
  | Cst _, Sprel _ | Sprel _, Cst _ -> false

let equal_value a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Cst x, Cst y | Sprel x, Sprel y -> x.lo = y.lo && x.hi = y.hi
  | _ -> false

(* Concrete membership, for the property tests: is word [w] described by
   the abstract value, given the concrete value [sp0] the stack pointer
   held at function entry? *)
let contains ~sp0 v w =
  match v with
  | Bot -> false
  | Top -> true
  | Cst i ->
    let s = Word.to_signed w in
    i.lo <= s && s <= i.hi
  | Sprel i ->
    let off = Word.to_signed (Word.sub w sp0) in
    i.lo <= off && off <= i.hi

let pp_value ppf v =
  match v with
  | Bot -> Format.fprintf ppf "bot"
  | Top -> Format.fprintf ppf "top"
  | Cst i ->
    if i.lo = i.hi then Format.fprintf ppf "%d" i.lo
    else Format.fprintf ppf "[%d,%d]" i.lo i.hi
  | Sprel i ->
    if i.lo = i.hi then Format.fprintf ppf "sp%+d" i.lo
    else Format.fprintf ppf "sp+[%d,%d]" i.lo i.hi

let value_to_string v = Format.asprintf "%a" pp_value v

(* ---- abstract arithmetic ---- *)

let add_value a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | Cst x, Cst y -> cst (x.lo + y.lo) (x.hi + y.hi)
  | Sprel x, Cst y | Cst y, Sprel x -> sprel (x.lo + y.lo) (x.hi + y.hi)
  | Sprel _, Sprel _ -> Top

let sub_value a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | Cst x, Cst y -> cst (x.lo - y.hi) (x.hi - y.lo)
  | Sprel x, Cst y -> sprel (x.lo - y.hi) (x.hi - y.lo)
  (* sp-relative minus sp-relative: the [sp0] terms cancel. *)
  | Sprel x, Sprel y -> cst (x.lo - y.hi) (x.hi - y.lo)
  | Cst _, Sprel _ -> Top

let mul_value a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Cst x, Cst y ->
    let ps = [ x.lo * y.lo; x.lo * y.hi; x.hi * y.lo; x.hi * y.hi ] in
    cst (List.fold_left min max_int ps) (List.fold_left max min_int ps)
  | _ -> Top

let scale_value v scale =
  if scale = 1 then v else mul_value v (Cst (singleton scale))

(* Word-exact evaluation when both operands are known single values;
   matches the VM's semantics instruction for instruction. *)
let concrete_binop op a b =
  let w =
    match op with
    | Insn.Add -> Word.add a b
    | Insn.Sub -> Word.sub a b
    | Insn.And -> Word.logand a b
    | Insn.Or -> Word.logor a b
    | Insn.Xor -> Word.logxor a b
    | Insn.Shl -> Word.shl a b
    | Insn.Shr -> Word.shr a b
    | Insn.Sar -> Word.sar a b
    | Insn.Mul -> Word.mul a b
  in
  Cst (singleton (Word.to_signed w))

let binop_value op a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ -> (
    match op with
    | Insn.Add -> add_value a b
    | Insn.Sub -> sub_value a b
    | Insn.Mul -> mul_value a b
    | Insn.And -> (
      match (a, b) with
      | Cst x, Cst y when x.lo = x.hi && y.lo = y.hi && x.lo >= 0 && y.lo >= 0
        ->
        concrete_binop op (Word.of_int x.lo) (Word.of_int y.lo)
      (* Masking with a known non-negative constant bounds the result in
         [0, mask] whatever the other operand is — the workhorse for
         histogram-style [and i, mask] index clamps. *)
      | _, Cst m when m.lo = m.hi && m.lo >= 0 -> cst 0 m.lo
      | Cst m, _ when m.lo = m.hi && m.lo >= 0 -> cst 0 m.lo
      | _ -> Top)
    | Insn.Or | Insn.Xor | Insn.Shl | Insn.Shr | Insn.Sar -> (
      match (a, b) with
      | Cst x, Cst y when x.lo = x.hi && y.lo = y.hi && x.lo >= 0 && y.lo >= 0
        ->
        concrete_binop op (Word.of_int x.lo) (Word.of_int y.lo)
      | _ -> Top))

let neg_value = function
  | Bot -> Bot
  | Cst x when x.lo = x.hi ->
    Cst (singleton (Word.to_signed (Word.neg (Word.of_int x.lo))))
  | Cst x when x.lo > i32_min -> cst (-x.hi) (-x.lo)
  | _ -> Top

let not_value = function
  | Bot -> Bot
  | Cst x when x.lo = x.hi ->
    Cst (singleton (Word.to_signed (Word.lognot (Word.of_int x.lo))))
  | _ -> Top

(* ---- register-file lattice and transfer ---- *)

let nregs = Reg.count

let entry_state () =
  let a = Array.make nregs Top in
  a.(Reg.index Reg.sp) <- Sprel (singleton 0);
  a

let get st r = st.(Reg.index r)

let set st r v =
  let st = Array.copy st in
  st.(Reg.index r) <- v;
  st

let eval_operand st = function
  | Insn.Imm v -> Cst (singleton (Word.to_signed v))
  | Insn.Reg r -> get st r

(* Abstract [base + index*scale + disp]; [next_pc] resolves pc-relative
   bases (the address of the following instruction is a link-time
   constant). *)
let eval_addr st ~next_pc (m : Insn.mem) =
  let base =
    match m.Insn.base with
    | Some (Insn.Breg r) -> get st r
    | Some Insn.Bpc -> Cst (singleton next_pc)
    | None -> Cst (singleton 0)
  in
  let idx =
    match m.Insn.index with
    | Some r -> scale_value (get st r) m.Insn.scale
    | None -> Cst (singleton 0)
  in
  let disp = Cst (singleton (Word.to_signed m.Insn.disp)) in
  add_value (add_value base idx) disp

let clobber st regs =
  let st = Array.copy st in
  List.iter (fun r -> st.(Reg.index r) <- Top) regs;
  st

(* Transfer of one instruction over the register file.  [trust] reflects
   [sa_reliable_conventions]: with it, direct calls preserve sp/fp and
   the callee-saved registers; without it the caller never gets here
   (the whole analysis bails).  Indirect calls clobber everything —
   bailing to Top on anything unproven. *)
let transfer_regs ~trust ~at ~len (i : Insn.t) st =
  let next_pc = at + len in
  match i with
  | Insn.Mov (rd, src) -> set st rd (eval_operand st src)
  | Insn.Lea (rd, m) -> set st rd (eval_addr st ~next_pc m)
  | Insn.Load (_, rd, _) -> set st rd Top
  | Insn.Load_canary rd -> set st rd Top
  | Insn.Binop (op, rd, src) ->
    set st rd (binop_value op (get st rd) (eval_operand st src))
  | Insn.Neg rd -> set st rd (neg_value (get st rd))
  | Insn.Not rd -> set st rd (not_value (get st rd))
  | Insn.Push _ ->
    set st Reg.sp (add_value (get st Reg.sp) (Cst (singleton (-4))))
  | Insn.Pop rd ->
    let st = set st rd Top in
    set st Reg.sp (add_value (get st Reg.sp) (Cst (singleton 4)))
  | Insn.Call _ ->
    if trust then clobber st Reg.caller_saved
    else clobber st Reg.all
  | Insn.Call_ind _ -> clobber st Reg.all
  (* This VM's syscalls write only the result register; clobbering all
     caller-saved registers over-approximates every one of them. *)
  | Insn.Syscall _ -> clobber st Reg.caller_saved
  | Insn.Nop | Insn.Halt | Insn.Store _ | Insn.Cmp _ | Insn.Test _
  | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_ind _ | Insn.Ret ->
    st

module RegLattice = struct
  type t = value array

  let equal a b =
    let ok = ref true in
    for i = 0 to nregs - 1 do
      if not (equal_value a.(i) b.(i)) then ok := false
    done;
    !ok

  let join a b = Array.init nregs (fun i -> join_value a.(i) b.(i))
  let widen a b = Array.init nregs (fun i -> widen_value a.(i) b.(i))
end

module Solver = Dataflow.Make (RegLattice)

type t = { vs_solver : Solver.t option  (** [None]: analysis bailed *) }

let analyze ?(trust_conventions = true) (fn : Jt_cfg.Cfg.fn) =
  if not trust_conventions then { vs_solver = None }
  else
    let transfer (i : insn_info) st =
      transfer_regs ~trust:true ~at:i.d_addr ~len:i.d_len i.d_insn st
    in
    let solver = Solver.solve ~entry:(entry_state ()) ~transfer fn in
    { vs_solver = Some solver }

let bailed t = t.vs_solver = None

let reg_before t addr r =
  match t.vs_solver with
  | None -> Top
  | Some s -> (
    match Solver.before s addr with
    | Some st -> get st r
    | None -> Top)

let mem_addr t (info : insn_info) (m : Insn.mem) =
  match t.vs_solver with
  | None -> Top
  | Some s -> (
    match Solver.before s info.d_addr with
    | Some st -> eval_addr st ~next_pc:(info.d_addr + info.d_len) m
    | None -> Top)

let block_in t a =
  match t.vs_solver with
  | None -> None
  | Some s ->
    Option.map
      (fun st -> List.map (fun r -> (r, get st r)) Reg.all)
      (Solver.block_in s a)

let iterations t =
  match t.vs_solver with None -> 0 | Some s -> Solver.iterations s
