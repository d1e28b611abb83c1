(** The cycle model.

    All timing constants of the simulation live here, so the calibration
    of every experiment is in one place.  Figures in the paper are ratios
    of instrumented to native cycle counts; the constants below were
    chosen so the *shape* of those ratios matches the paper (who wins, by
    roughly what factor), which is all a simulated substrate can honestly
    promise. *)

val insn : Jt_isa.Insn.t -> int
(** Native execution cost of one instruction. *)

(** {1 Dynamic binary translation engine (DynamoRIO analog)} *)

val dbt_translate_block : int
(** Fixed cost of building one code-cache block. *)

val dbt_translate_insn : int
(** Added translation cost per instruction in the block. *)

val dbt_indirect_lookup : int
(** Cost of the indirect-branch target lookup paid at every executed
    indirect jump, indirect call and return under the DBT (direct
    branches are linked and cost nothing extra). *)

val dbt_ibl_hit : int
(** Cost of an indirect transfer resolved by a per-site inline cache
    (last-target or associative way): a compare-and-jump instead of the
    full [dbt_indirect_lookup] hash probe. *)

val dbt_clean_call : int
(** Cost of a clean call: full register + flag save/restore around an
    out-of-line instrumentation routine. *)

val spill_reg : int
(** Save + restore of one register around inlined instrumentation. *)

val save_restore_flags : int
(** Save + restore of the arithmetic flags around inlined
    instrumentation. *)

(** {1 Address sanitizer} *)

val asan_check : int
(** Inlined shadow-memory check (shadow load, compare, branch). *)

val asan_canary_op : int
(** Poisoning or unpoisoning a canary slot. *)

(** {1 Interpretive (Valgrind-like) execution} *)

val valgrind_per_insn : int
(** Dispatch/IR overhead per executed instruction. *)

val valgrind_mem_check : int
(** Shadow check per memory access. *)

(** {1 Control-flow integrity} *)

val cfi_forward_check : int
(** Inlined hash-table membership test at an indirect call or jump. *)

val cfi_shadow_push : int
(** Shadow-stack push at a call. *)

val cfi_shadow_pop : int
(** Shadow-stack pop + compare at a return. *)

val bincfi_translation : int
(** BinCFI-style address-translation lookup at an indirect transfer
    (static rewriting replaces targets with table lookups). *)

val lockdown_per_block : int
(** Lockdown's lightweight translator overhead per executed block. *)

val lockdown_indirect : int
(** Lockdown's per-indirect-transfer check cost. *)
