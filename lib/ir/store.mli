(** Content-addressed persistence for the serializable IR (DESIGN.md §13).

    Entries are keyed by the producing module's content digest
    ([Jt_obj.Objfile.digest]); the disk layout is one
    [<hex-digest>.jtir] file per module, containing {!Ir.encode} output
    verbatim, written once on a miss and never updated in place.  Any
    load failure — truncation, bad magic, wrong schema version, a
    checksum mismatch, a digest mismatch between file name/contents and
    the requested key — is a warning plus transparent re-analysis, mirroring
    [Driver.load_rules]: a corrupt store must never take a run down.

    The disk store is fronted by a {!Memo}: a bounded in-memory LRU
    shared across domains, with {e single-flight} per digest — when
    several [Jt_pool] workers miss on the same module simultaneously,
    exactly one runs the compute function and the rest block until its
    result is published.  {!Rewrite_cache} uses the same layer. *)

type t

val create : ?capacity:int -> dir:string -> unit -> t
(** [capacity] bounds the in-memory LRU in entries (default 32;
    0 disables the memory layer).  [dir] is created if missing. *)

val dir : t -> string

val find_or_compute :
  t -> digest:string -> name:string -> (unit -> Ir.t) -> Ir.t
(** Look up by content digest: in-memory LRU, then disk (validated), then
    the compute function — whose result is persisted to disk and
    published to the LRU.  Concurrent callers for the same digest
    single-flight: one computes, the rest wait.  [name] labels metrics
    and trace events only.  If the compute function raises, the
    exception propagates to its caller and waiters retry. *)

type stats = {
  st_mem_hits : int;
  st_disk_hits : int;
  st_misses : int;  (** lookups that ran the compute function *)
  st_evictions : int;  (** in-memory LRU evictions *)
  st_corrupt : int;  (** disk entries rejected on load *)
}

val stats : t -> stats
val reset_stats : t -> unit

val hit_rate : stats -> float
(** Hits over lookups, in [0,1]; 1.0 when there were no lookups. *)

val disk_entries : t -> (string * int * float) list
(** [(path, bytes, mtime)] of every on-disk entry, oldest first — the
    LRU order {!gc} evicts in. *)

val gc : t -> max_bytes:int -> int * int
(** Evict oldest-accessed disk entries until the store fits in
    [max_bytes].  Returns (entries removed, bytes freed). *)

val clear : t -> int
(** Remove every disk entry and drop the memory layer; returns the
    number of disk entries removed. *)
