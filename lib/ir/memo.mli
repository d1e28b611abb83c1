(** A bounded in-memory table shared across domains: least-recently-used
    eviction, one mutex, and {e single-flight} per key — when several
    [Jt_pool] workers miss on the same key at once, exactly one runs the
    fill function and the rest block until its result is published.

    It is the memory layer of {!Store} (values: IR) and of
    {!Rewrite_cache} (values: a shared object's rewrite products). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] bounds the table in entries; 0 keeps nothing (lookups
    still single-flight, but a waiter then fills for itself).
    @raise Invalid_argument on a negative capacity. *)

val find_or_fill :
  ?on_hit:(unit -> unit) ->
  ?on_evict:(unit -> unit) ->
  'a t ->
  string ->
  (unit -> 'a) ->
  'a
(** The value under the key: from the table (then [on_hit] runs), or
    from the fill function, run outside the lock, whose result is
    published (then [on_evict] runs if that pushed out the least recently
    used entry).  Both callbacks run on the caller's domain without the
    lock held.  If the fill function raises, the exception propagates
    and waiters retry. *)

val remove : 'a t -> string -> unit
val clear : 'a t -> unit

val hits : 'a t -> int
(** Lookups served from the table since creation or {!reset_stats}. *)

val evictions : 'a t -> int
(** Entries pushed out to make room, since creation or {!reset_stats}. *)

val reset_stats : 'a t -> unit
