(** Instructions of the simulated machine.

    The instruction set is deliberately x86-flavoured in the ways that
    matter to the paper: variable-length byte encoding, 32-bit immediates
    and displacements embedded in the instruction stream (so that code
    pointers can be found — and confused with data — by sliding-window
    scanning), arithmetic flags set implicitly by ALU operations, indirect
    calls and jumps through registers or memory (jump tables), and
    push/pop/call/ret stack discipline.

    Control-transfer targets of direct jumps and calls are stored as
    absolute addresses in this representation; the encoder turns them into
    PC-relative displacements (making direct transfers position
    independent, as on x86), and the decoder converts them back using the
    decode address. *)

type width = W1 | W2 | W4

type base =
  | Breg of Reg.t
  | Bpc  (** PC-relative addressing: base is the address of the
             following instruction.  Used by PIC code to take addresses
             without absolute relocations. *)

type mem = {
  base : base option;
  index : Reg.t option;
  scale : int;  (** 1, 2, 4 or 8 *)
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
  | Binop of binop * Reg.t * operand  (** [rd := rd op src]; sets flags *)
  | Neg of Reg.t
  | Not of Reg.t
  | Cmp of Reg.t * operand
  | Test of Reg.t * operand
  | Push of operand
  | Pop of Reg.t
  | Jmp of Word.t  (** absolute target *)
  | Jcc of cond * Word.t
  | Jmp_ind of Reg.t option * mem option
      (** Indirect jump through a register ([Some r, None]) or a memory
          location such as a jump-table slot ([None, Some m]). *)
  | Call of Word.t
  | Call_ind of Reg.t option * mem option
  | Ret
  | Load_canary of Reg.t  (** [rd := canary secret] (the fs:0x28 analog) *)
  | Syscall of int

val jmp_ind_reg : Reg.t -> t
val jmp_ind_mem : mem -> t
val call_ind_reg : Reg.t -> t
val call_ind_mem : mem -> t

val mem_abs : Word.t -> mem
(** Absolute-address memory operand (disp only).  With {!mem_pcrel},
    read only by test_isa's encoder samples. *)

val mem_base : ?disp:Word.t -> Reg.t -> mem
val mem_base_index : ?disp:Word.t -> ?scale:int -> Reg.t -> Reg.t -> mem
val mem_pcrel : Word.t -> mem

val width_bytes : width -> int

(** {1 Classification} *)

type cti_kind =
  | Cti_jmp of Word.t
  | Cti_jcc of cond * Word.t
  | Cti_jmp_ind
  | Cti_call of Word.t
  | Cti_call_ind
  | Cti_ret
  | Cti_halt
  | Cti_syscall

val cti_kind : t -> cti_kind option
(** [None] for straight-line instructions.  [Syscall] is reported as a
    (possible) control transfer because it may terminate the program or
    transfer to dynamically generated code. *)

val ends_block : t -> bool
(** True for unconditional transfers, conditional branches, calls,
    returns and halt — everything that terminates a basic block. *)

(** {1 Register and flag use/def, for liveness} *)

val uses : t -> Reg.t list
(** Registers read by the instruction (including address components and
    implicit stack-pointer uses). *)

val defs : t -> Reg.t list
(** Registers written. *)

val use_mask : t -> int
(** {!uses} as a bit mask, bit [Reg.index r] per register, built without
    the list. *)

val def_mask : t -> int
(** {!defs} as a bit mask. *)

val flags_def : t -> Flags.set
(** Flags written by the instruction. *)

val flags_use : t -> Flags.set
(** Flags read (conditional branches). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
