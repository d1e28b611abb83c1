(** Instruction decoding.

    Decoding is the ground truth used by the interpreter and the dynamic
    modifier, and also by the static disassembler — where, exactly as in
    real binary analysis, a byte sequence that happens to look like a valid
    instruction will decode successfully even if it is actually data. *)

val max_len : int
(** 16: no encoding is longer.  A caller decoding from a buffer that may
    end within [max_len] bytes of the instruction's start (a memory
    page, a section) decodes from a copy of the next [max_len] readable
    bytes instead, so an instruction that runs on into the next page or
    section decodes in full. *)

val instr : Bytes.t -> pos:int -> lim:int -> at:int -> (Insn.t * int) option
(** [instr b ~pos ~lim ~at] decodes the instruction whose first byte is
    [b.[pos]], as if loaded at virtual address [at]; the bytes from
    [lim] on are unreadable.  Returns the instruction and its encoded
    length, or [None] if the bytes do not form a valid instruction or it
    would read past [lim].
    @raise Invalid_argument unless [0 <= pos] and
    [lim <= Bytes.length b]. *)
