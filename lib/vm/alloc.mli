(** The heap allocator behind the [malloc]/[free] syscalls.

    A bump allocator with a freed-block quarantine.  Addresses are never
    reused while a block sits in quarantine; the quarantine is a FIFO
    bounded by a byte budget, and only allocators created with
    [~reuse:true] ever hand a retired footprint back out.  Every block
    carries a monotonically increasing allocation ID so tools can tell
    reallocation at a recycled address apart from the original lifetime.
    Sanitizers interpose on it the way LLVM ASan's runtime replaces the
    allocator via LD_PRELOAD: by configuring redzone padding and
    subscribing to allocation events. *)

type bad_free_kind =
  | Double_free  (** [free] of a block that was already freed. *)
  | Invalid_free
      (** [free] of an address that was never a block base (wild or
          interior pointer). *)

type event =
  | Ev_alloc of { id : int; addr : int; size : int; redzone : int }
  | Ev_free of { id : int; addr : int; size : int }
  | Ev_unquarantine of { id : int; addr : int; size : int }
      (** The block left quarantine: its footprint may be recycled by a
          future [malloc] (reuse mode) and tools should drop any per-ID
          bookkeeping for it. *)
  | Ev_bad_free of { addr : int; kind : bad_free_kind }

type t

val create :
  ?base:int -> ?reuse:bool -> ?quarantine_capacity:int -> unit -> t
(** [base] defaults to the conventional heap start, [0x5000_0000].
    [reuse] (default [false]) lets [malloc] recycle footprints retired
    from quarantine; [quarantine_capacity] (default 1 MiB) bounds the
    total user bytes held in quarantine before the oldest blocks are
    retired. *)

val set_redzone : t -> int -> unit
(** Padding placed before and after every subsequent block. *)

val quarantined_bytes : t -> int
(** Read only by test_jasan "alloc-lifecycle" "drain and reuse". *)

val subscribe : t -> (event -> unit) -> unit

val malloc : t -> int -> int
(** Returns the user address of a fresh block ([size] >= 0). *)

val free : t -> int -> unit

val block_of : t -> int -> (int * int * bool) option
(** [block_of t addr]: the [(base, size, live)] of the block whose user
    range contains [addr], if any (redzones excluded). *)
