(** Sparse paged byte memory for the simulated machine.

    A two-level page table of 4 KiB pages.  Pages are allocated on first
    write and read as zero until then, so programs never fault on
    ordinary accesses; memory-safety violations are the business of the
    sanitizers under test, not of the paging layer.  All multi-byte
    accesses are little-endian, and an access that runs past the top of
    the address space wraps to address 0. *)

type t

val create : unit -> t

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int

val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit

val read : t -> int -> width:int -> int
(** [width] is 1, 2 or 4 bytes. *)

val write : t -> int -> width:int -> int -> unit

val write_string : t -> int -> string -> unit
val read_cstring : t -> int -> string
(** Read a NUL-terminated string (at most 4096 bytes). *)
