(** Values derived from immutable objects, kept beside them, in the
    spirit of GTIRB's AuxData: a module's content digest, its decoded
    emit map, a rule file's load-time index.

    A table is keyed by the physical identity of the object: the object
    is immutable, so it always derives the same value, and a
    [{ x with ... }] copy is a new key that derives its own.  Keys are
    held weakly, so an entry dies with its object: a per-operation
    object takes its derived values with it.  Each domain has its own
    table, so no lock is taken; two domains asking for one object may
    each compute its value. *)

module Make (K : sig
  type t

  val hash : t -> int
  (** Any hash of the content that stays put for one object; equal keys
      are the same object. *)
end) : sig
  type 'a t

  val create : unit -> 'a t
  (** Call once, at module initialization. *)

  val find_or_add : 'a t -> K.t -> (K.t -> 'a) -> 'a
  (** The calling domain's value for this object, computed on its first
      request.  If the computation raises, nothing is kept. *)

  val find : 'a t -> K.t -> 'a option

  val add : 'a t -> K.t -> 'a -> unit
  (** Keep a value the caller already holds (say, one it has just
      encoded into the object). *)
end
