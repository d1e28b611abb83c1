(** Byte-level instruction encoding.

    Instructions encode to between 1 and 13 bytes.  Direct control
    transfers store a PC-relative 32-bit displacement (relative to the end
    of the instruction), so encoding needs the instruction's own address.
    All multi-byte fields are little-endian. *)

val length : Insn.t -> int
(** Encoded size in bytes (independent of the address). *)

val to_buffer : Buffer.t -> at:int -> Insn.t -> unit
(** [to_buffer b ~at i] appends the encoding of [i], assuming it is placed
    at virtual address [at]. *)

val encode : at:int -> Insn.t -> string
