(** Address-key availability machinery shared by the JASan per-function
    availability must-analysis ([Jt_jasan.Jasan.plan_elision]) and the
    DBT's trace-spine elision pass.  Both sides must agree exactly on
    what "same address" means, on which instructions act as shadow
    barriers and on which check witnesses an elision, so the
    definitions live here once. *)

(** Syntactic address key [(base, index, scale, disp, width)] with
    register operands as [Reg.index] values ([-1] for absent).  Two
    accesses with equal keys whose registers carry the same values
    compute the same address range. *)
module Key : sig
  type t = int * int * int * int * int

  val compare : t -> t -> int
end

module Map : Stdlib.Map.S with type key = Key.t

val key_of : Jt_isa.Insn.mem -> int -> Key.t option
(** The key of a memory operand at a given access width; [None] for
    pc-relative bases (those are handled by the pcrel claim, not by
    availability). *)

val key_regs : Key.t -> Jt_isa.Reg.t list
(** The guest registers an address key reads (base and/or index). *)

(** Where an available key's check happened: one access on every path,
    or different accesses on different paths. *)
type site = Site of int | Several

type t = site Map.t
(** The available keys, each with the check that made it available. *)

val gen : Key.t -> int -> t -> t
(** [gen k addr st]: the access at [addr] checks [k].  It becomes [k]'s
    site unless [k] already has a single site, so a recorded site is
    always an access that keeps its own check. *)

val witness : Key.t -> t -> int option
(** The single site of an available key; [None] when the key is absent
    or marked {!Several}. *)

(** The must-lattice: join keeps the keys available on both sides and
    marks a key whose sites differ {!Several}; the optimistic top is
    implicit in the solver. *)
module Lattice : sig
  type nonrec t = t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
end

val insn_transfer : Jt_isa.Insn.t -> t -> t
(** The instruction-shape part of the transfer function: calls and
    syscalls clear the state (shadow-state barriers); a definition of a
    key's address registers kills that key.  Clients add their own gen
    sites and extra barriers (canary stores) around this. *)
