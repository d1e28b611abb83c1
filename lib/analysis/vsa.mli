(** Conservative value-set / interval analysis (section 3.3 style helper,
    in the spirit of VSA) built on the {!Dataflow} solver.

    Tracks each register at each program point as one of: unreachable
    ([Bot]), a signed-32-bit interval of word values ([Cst] — constants
    and global/absolute addresses with offsets), the function-entry stack
    pointer plus an offset interval ([Sprel]), or unknown ([Top]).

    The analysis is deliberately conservative: loads, indirect calls and
    anything else unproven go to [Top]; interval arithmetic saturates to
    [Top] rather than modelling 32-bit wraparound; and for modules that
    break the calling convention ([sa_reliable_conventions = false] —
    pass [trust_conventions:false]) the whole analysis bails and every
    query answers [Top]. *)

open Jt_isa

type itv = { lo : int; hi : int }

type value = Bot | Cst of itv | Sprel of itv | Top

type t

val analyze : ?trust_conventions:bool -> Jt_cfg.Cfg.fn -> t
(** Fixpoint over the function.  [trust_conventions] defaults to [true];
    with [false] the analysis bails (every query returns [Top]). *)

val bailed : t -> bool

val reg_before : t -> int -> Reg.t -> value
(** Abstract value of a register just before an instruction ([Top] for
    unknown addresses or a bailed analysis). *)

val mem_addr : t -> Jt_disasm.Disasm.insn_info -> Insn.mem -> value
(** Abstract address of a memory operand evaluated at an instruction
    (pc-relative bases resolve against the instruction's end address). *)

val block_in : t -> int -> (Reg.t * value) list option
(** Per-register state at a block boundary, for fact dumps. *)

val iterations : t -> int

(** {1 Lattice primitives}

    Exposed for the property-based tests: monotonicity of [join]/[widen]
    and soundness of {!transfer_regs} against concrete replays. *)

val join_value : value -> value -> value
val widen_value : value -> value -> value
val leq_value : value -> value -> bool
(** Lattice order.  Read only by test_props "vsa". *)

val equal_value : value -> value -> bool

val contains : sp0:Word.t -> value -> Word.t -> bool
(** [contains ~sp0 v w]: does the abstract value describe the concrete
    word [w], where [sp0] is the concrete stack pointer at function
    entry (the reference point of [Sprel])? *)

val entry_state : unit -> value array
(** The function-entry register file: [sp = Sprel [0,0]], all else
    [Top]. *)

val transfer_regs :
  trust:bool -> at:int -> len:int -> Insn.t -> value array -> value array
(** Pure per-instruction transfer over a 16-entry register file (does not
    mutate its input). *)

val value_to_string : value -> string
