(** Intra-procedural register and arithmetic-flag liveness.

    This is the analysis behind the paper's main rewrite-rule optimization
    (sections 3.3.2 and 4.1): instrumentation inserted before an
    instruction only needs to save and restore the registers and flags
    that are live there.

    Conservatism follows the paper: at indirect branches with unknown
    targets everything is assumed live; calls are assumed to clobber
    caller-saved registers and flags and to read the argument registers;
    returns and tail calls keep the return value, stack registers and
    callee-saved registers live.  For modules that break the calling
    convention (the ipa-ra / hand-written-assembly cases of section
    4.1.2), use {!conservative} results instead. *)

open Jt_isa

type t
(** Liveness facts for one function: one word per instruction (register
    mask and flag bits), in an array aligned with the function's
    instruction order ({!Jt_cfg.Cfg.fn}'s [f_first]).  {!analyze}
    computes per-instruction kill/gen masks ({!Jt_isa.Insn.def_mask},
    {!Jt_isa.Insn.use_mask}), summarizes each block by them, solves the
    fixpoint over block indices and replays each block once to fill the
    array; {!import} fills the same array from stored facts.  A query
    finds the instruction by {!Jt_cfg.Cfg.insn_index}. *)

val analyze :
  ?call_summary:(int -> (int * int) option) ->
  ?exit_all_live:bool ->
  Jt_cfg.Cfg.fn ->
  t
(** [call_summary entry] may supply an inter-procedural
    [(clobbered-mask, read-mask)] for a direct callee (see
    {!Interproc}); used instead of the calling convention when the
    module is known to break it.  [exit_all_live] additionally treats
    every register and flag as live at returns and tail calls, for
    callees whose callers may rely on non-standard state. *)

val live_before : t -> int -> int * Flags.set
(** [live_before t addr] = (register bit mask, flag set) live immediately
    before the instruction at [addr].  Unknown addresses report everything
    live.  Read only by test_cfg "reference", against test/live_ref.ml. *)

val dead_regs_before : t -> int -> Reg.t list
(** Registers (excluding [sp] and [fp], which instrumentation never
    borrows) provably dead before the instruction. *)

val flags_dead_before : t -> int -> bool
(** Are all four arithmetic flags dead before the instruction? *)

val conservative : Jt_cfg.Cfg.fn -> t
(** Everything live everywhere: the fallback for convention-breaking
    modules and the "JASan-hybrid (base)" configuration of Figure 8. *)

val reg_mask : Reg.t list -> int

val export : t -> bool * (int * int * int) list
(** [(all_live, facts)] where each fact is (instruction address, live
    register mask, live flag bits), sorted by address — the complete
    analysis result, ready for the serializable IR. *)

val import : all_live:bool -> facts:(int * int * int) list -> Jt_cfg.Cfg.fn -> t
(** Inverse of {!export} over the same function: every query answers
    identically to the original analysis.  @raise Failure when a fact
    names no instruction of the function, carries bits beyond the
    registers, or comes with [all_live]. *)
