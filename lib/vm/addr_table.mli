(** A table keyed by guest address.

    The VM files its decoded instructions here and the DBT its
    translated blocks.  It is a four-level radix tree over the 32-bit
    address space, 8 index bits a level, laid out like
    {!Jt_mem.Memory}: levels not yet written point at shared empty
    sentinels, and no level is longer than 256 words, so a small
    program's table comes from the minor heap.  A lookup is four array
    loads with no allocation and no exception, and an insert one array
    store once its leaf exists.

    Each entry covers a byte span that starts at its key (an
    instruction's length, a block's extent).  A range flush drops every
    entry whose span overlaps the range, an entry that starts up to
    "largest span seen − 1" bytes before the range included, and it
    visits only the levels that have been allocated. *)

type 'a kind
(** What a table of one entry type holds: the value standing for "no
    entry", the span of an entry, and the shared empty levels.  Make one
    per entry type, once, and create every table of that type from
    it. *)

val kind : none:'a -> span:('a -> int) -> 'a kind
(** [span e] is the number of bytes [e] covers, from its key on; a
    span below 1 counts as 1.  [none] must not be stored. *)

type 'a t

val create : 'a kind -> 'a t
(** An empty table: one 256-word array. *)

val find : 'a t -> int -> 'a
(** The entry at an address, or the kind's [none].  Always [none] for a
    key outside [\[0, 0xFFFF_FFFF\]]. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or replace the entry at an address.  A key outside
    [\[0, 0xFFFF_FFFF\]] is not kept: only the PC after an instruction
    that straddles the top of the address space is such a key, and it
    is decoded (or translated) afresh each time it is reached. *)

val flush : 'a t -> int -> int -> (int -> 'a -> unit) -> unit
(** [flush t start len f] removes every entry whose span overlaps
    [\[start, start + len)], and calls [f key entry] on each after
    removing it, in ascending key order within each piece of the range.
    Addresses are taken modulo 2{^32}: a range or a span that runs past
    [0xFFFF_FFFF] continues at 0.  [f] must not change the table. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over every entry in ascending key order, visiting only
    allocated leaves. *)
