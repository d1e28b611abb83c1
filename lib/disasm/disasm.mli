(** Static disassembly of JELF modules.

    Works on link-time addresses.  The main entry point is
    recursive-traversal disassembly seeded from the module's entry point,
    visible function symbols and PLT stubs, with jump-table recovery for
    memory-indirect jumps.  Like any static disassembler it is an
    under-approximation: code reachable only through computed transfers
    that defeat the jump-table heuristic is missed — these are exactly the
    blocks Janitizer's dynamic modifier later discovers and reports in the
    coverage experiment (Figure 14). *)

open Jt_isa

type insn_info = { d_addr : int; d_insn : Insn.t; d_len : int }

type t = {
  dmod : Jt_obj.Objfile.t;
  insns : (int, insn_info) Hashtbl.t;  (** by address *)
  leaders : int array;
      (** basic-block leader addresses, sorted once by {!run}: the order
          {!Jt_cfg.Cfg.build} numbers blocks in *)
  func_entries : int list;  (** sorted discovered function entries *)
  jump_tables : (int * int list) list;
      (** (indirect-jump address, recovered targets) *)
}

val decode_in :
  Jt_obj.Objfile.t -> Jt_obj.Section.t -> int -> (Insn.t * int) option
(** [decode_in m s a] decodes the instruction at link-time address [a]
    of section [s] of [m], which holds [a], straight from the section's
    bytes.  One that starts within {!Jt_isa.Decode.max_len} bytes of the
    section's end is decoded from a copy of the bytes that follow, so an
    instruction that runs on into an abutting section decodes as the
    loaded module's memory would. *)

val run : Jt_obj.Objfile.t -> t
(** Recursive-traversal disassembly over all executable sections
    ([.init], [.plt], [.text], [.fini]). *)

val is_insn_boundary : t -> int -> bool
(** Did disassembly place an instruction start at this address? *)

val block_starts : t -> int list
(** [leaders] as a list. *)

val code_stats : t -> int * int
(** (bytes covered by decoded instructions, total code-section bytes). *)

(** {1 Pointer scanning}

    The BinCFI-style sliding-window scan (section 4.2.1 of the paper): read
    every 4-byte window of the module, one byte apart, and report values
    that land inside the module's code sections.  For PIC modules the scan
    interprets window values as module offsets.  The result is the raw
    constant set; policies then filter it against instruction or function
    boundaries. *)

val scan_code_pointers : Jt_obj.Objfile.t -> int list
(** Sorted, deduplicated link-time addresses found by the scan. *)

val pp_listing : Format.formatter -> t -> unit
(** objdump-style listing: per code section, each decoded instruction
    with address, bytes and mnemonic; symbol names as labels; undecoded
    ranges marked as data. *)

val speculative_insn_boundary : Jt_obj.Objfile.t -> int -> bool
(** Does a plausible instruction sequence (four consecutive decodes)
    start at this address?  Used by allow-list policies (section 4.2.3)
    for scanned constants that recursive traversal never reached, such
    as computed-goto targets held in data tables. *)
