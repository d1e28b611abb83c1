(** Sparse paged byte memory for the simulated machine.

    A three-level page table of 4 KiB pages (8, 6 and 6 index bits, so
    every interior level is at most 256 words).  Pages are allocated on
    first write and read as zero until then, so programs never fault on
    ordinary accesses; memory-safety violations are the business of the
    sanitizers under test, not of the paging layer.  All multi-byte
    accesses are little-endian, and an access that runs past the top of
    the address space wraps to address 0.  The JASan shadow is a second
    table of the same geometry (see {!page}). *)

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

val page_size : int
(** 4096. *)

val page : t -> int -> Bytes.t
(** The page holding address [a] (masked to the word): [page_size] data
    bytes, the byte at [a] at offset [a land (page_size - 1)], then two
    bytes that the memory itself never reads or writes, for its owner.
    A page never written is a shared all-zero sentinel; do not write
    it. *)

val page_for_write : t -> int -> Bytes.t
(** Like {!page}, allocating the page (zeroed) on first use. *)
