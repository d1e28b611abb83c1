(** Module assembly and linking.

    Turns symbolic functions and data definitions into a laid-out JELF
    module: assigns section addresses ([.init], [.plt], [.text], [.fini],
    [.rodata], [.data], [.got]), synthesizes lazy-binding PLT stubs and GOT
    slots for imports, resolves labels, emits relocations for PIC modules,
    and produces the symbol table. *)

open Jt_isa

type item =
  | I of Sinsn.t
  | L of string  (** label definition *)
  | Bytes of string  (** raw data embedded in the code stream *)
  | Inline_table of string list
      (** jump table embedded in the code stream: one 32-bit slot per
          label of the current function (classic data-in-code) *)

type func = {
  fname : string;
  exported : bool;
  body : item list;
}

type dinit =
  | Dbytes of string
  | Dword32 of int
  | Dfuncptr of string  (** address of a function of this module *)
  | Ddataptr of string  (** address of a data object of this module *)
  | Dlabelptr of string * string  (** address of (function, label) *)
  | Dimportptr of string  (** loader-resolved address of an import *)
  | Dspace of int  (** zero fill *)

type data = {
  dname : string;
  dexported : bool;
  ro : bool;  (** place in [.rodata] instead of [.data] *)
  init : dinit list;
}

val func : ?exported:bool -> string -> item list -> func
val data : ?exported:bool -> ?ro:bool -> string -> dinit list -> data

exception Asm_error of string

val build :
  name:string ->
  kind:Jt_obj.Objfile.kind ->
  ?symtab_level:Jt_obj.Objfile.symtab_level ->
  ?features:Jt_obj.Objfile.feature list ->
  ?deps:string list ->
  ?entry:string ->
  ?init_funcs:func list ->
  ?fini_funcs:func list ->
  ?datas:data list ->
  func list ->
  Jt_obj.Objfile.t
(** [build ~name ~kind funcs] assembles a module.

    Imports are inferred: any [Rimport] reference creates a GOT slot, and
    [Rimport]s used as control-transfer targets additionally get a lazy
    PLT stub (two hidden symbols, ["sym@plt"] and ["sym@plt.lazy"], mark
    each stub).  GOT slot 0 is reserved for the run-time lazy-binding
    resolver ([__dl_resolve], exported by the ["ld.so"] module, which is
    appended to [deps] automatically when stubs exist).

    Position-independent modules reject absolute address materialization
    ([Saddr]/absolute-disp references to local symbols outside
    PC-relative addressing are turned into load-time [Rel_local]
    relocations when they appear in data, and are an error in code).

    @raise Asm_error on duplicate/unknown labels or PIC violations. *)

(** {1 Convenience instruction constructors} *)
module Dsl : sig
  open Sinsn

  val nop : item
  val halt : item
  val ret : item
  val label : string -> item
  val mov : Reg.t -> Reg.t -> item
  val movi : Reg.t -> int -> item
  val addr_of_func : pic:bool -> Reg.t -> string -> item
  (** Materialize a function address: absolute immediate for non-PIC,
      PC-relative [lea] for PIC. *)

  val addr_of_data : pic:bool -> Reg.t -> string -> item
  val addr_of_label : pic:bool -> Reg.t -> string -> item
  val lea : Reg.t -> smem -> item
  val ld : Reg.t -> smem -> item
  val ldb : Reg.t -> smem -> item
  val st : smem -> Reg.t -> item
  val stb : smem -> Reg.t -> item
  val sti : smem -> int -> item
  val binop : Insn.binop -> Reg.t -> Reg.t -> item
  val binopi : Insn.binop -> Reg.t -> int -> item
  val add : Reg.t -> Reg.t -> item
  val addi : Reg.t -> int -> item
  val sub : Reg.t -> Reg.t -> item
  val subi : Reg.t -> int -> item
  val muli : Reg.t -> int -> item
  val xor : Reg.t -> Reg.t -> item
  val andi : Reg.t -> int -> item
  val shli : Reg.t -> int -> item
  val shri : Reg.t -> int -> item
  val cmp : Reg.t -> Reg.t -> item
  val cmpi : Reg.t -> int -> item
  val testi : Reg.t -> int -> item
  val push : Reg.t -> item
  val pop : Reg.t -> item
  val jmp : string -> item
  val jcc : Insn.cond -> string -> item
  val call : string -> item
  (** Call a function of the same module. *)

  val call_import : string -> item
  (** Call through the PLT. *)

  val call_reg : Reg.t -> item
  val jmp_reg : Reg.t -> item
  val syscall : int -> item
  val load_canary : Reg.t -> item

  val mem_b : ?disp:int -> Reg.t -> smem
  (** [base + disp] *)

  val mem_bi : ?disp:int -> ?scale:int -> Reg.t -> Reg.t -> smem
  val mem_pc_data : string -> smem
  (** PC-relative reference to a data object (PIC-safe).  Read only by
      test_vm "end-to-end" "pic-data". *)

  val mem_got : string -> smem
  (** PC-relative reference to an import's GOT slot. *)
end

(** {1 ABI helpers} *)
module Abi : sig
  val frame_enter : ?canary:bool -> locals:int -> unit -> item list
  (** Standard prologue: save [fp], establish frame, reserve [locals]
      bytes, and (optionally) store the stack canary in the slot at
      [fp - 4] using the pattern of Figure 6. *)

  val frame_leave : ?canary:bool -> locals:int -> unit -> item list
  (** Standard epilogue; with [canary], verifies the canary slot and
      calls the imported [__stack_chk_fail] on mismatch. *)

  val local : int -> int -> Sinsn.smem
  (** [local locals i]: the [i]-th 4-byte local slot, counting from 0
      upward, in a frame created with [frame_enter ~locals].  Slot 0 is
      at [fp - locals]; the canary, when present, lives at [fp - 4]. *)
end
