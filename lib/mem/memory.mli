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

(** {1 Code marks}

    Each page keeps one mark per 64-byte chunk, set by {!mark_code}
    when an instruction is decoded from the chunk and never cleared.
    The [store*] writes return whether the bytes written lie in a
    marked chunk, so a caller that caches decoded code can drop what
    the write overwrote; the plain writes do the same test and ignore
    it. *)

val mark_code : t -> int -> int -> unit
(** [mark_code t a len] marks every chunk that [\[a, a + len)] touches,
    wrapping at the top of the address space, allocating any page it
    marks. *)

val store8 : t -> int -> int -> bool
val store16 : t -> int -> int -> bool
val store32 : t -> int -> int -> bool
(** Like [write8]/[write16]/[write32]; [true] when a written byte lies in
    a marked chunk. *)

val write_string : t -> int -> string -> unit
val read_cstring : t -> int -> string
(** Read a NUL-terminated string (at most 4096 bytes). *)

val page_size : int
(** 4096. *)

val page : t -> int -> Bytes.t
(** The page holding address [a] (masked to the word): [page_size] data
    bytes, the byte at [a] at offset [a land (page_size - 1)], then two
    bytes that the memory itself never reads or writes, for its owner,
    then the page's code marks.
    A page never written is a shared all-zero sentinel; do not write
    it. *)

val page_for_write : t -> int -> Bytes.t
(** Like {!page}, allocating the page (zeroed) on first use. *)
