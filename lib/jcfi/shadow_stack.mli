(** The precise shadow stack backing JCFI's backward-edge policy
    (section 4.2): the intended return address is pushed at call time and
    verified at return. *)

type t

val create : unit -> t
val push : t -> int -> unit

val check_pop : t -> int -> bool
(** [check_pop t ret_target]: pop the top entry and compare.  Returns
    false on mismatch (an entry is still consumed, resynchronizing on the
    next frames).  An empty shadow stack accepts anything: frames that
    predate instrumentation (process startup) must not fault. *)
