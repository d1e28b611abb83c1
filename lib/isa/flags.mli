(** Arithmetic condition flags.

    The simulated machine has the four classic x86-style flags.  Flag sets
    are represented as bit masks so that liveness analysis can treat them
    uniformly with register sets. *)

type flag = Zf | Sf | Cf | Of

type set = private int
(** A set of flags, as a bit mask. *)

val empty : set
val all : set
val singleton : flag -> set
val union : set -> set -> set
val inter : set -> set -> set
val diff : set -> set -> set
(** Read only by the liveness oracle test/live_ref.ml (test_cfg
    "reference"). *)

val mem : flag -> set -> bool
val is_empty : set -> bool
val equal : set -> set -> bool
val of_list : flag list -> set

val of_mask : int -> set
(** The flags whose bits are set in the mask (other bits ignored). *)

val to_list : set -> flag list

val pp : Format.formatter -> set -> unit

(** Mutable flag state of a running machine. *)
type state = { mutable zf : bool; mutable sf : bool; mutable cf : bool; mutable of_ : bool }

val create : unit -> state
(** All flags initially clear. *)

val copy : state -> state
val get : state -> flag -> bool
val set_arith : state -> result:Word.t -> carry:bool -> overflow:bool -> unit
(** Update all four flags from an ALU result. *)

val set_logic : state -> result:Word.t -> unit
(** Update flags after a logical operation: CF and OF cleared, ZF/SF from
    the result. *)

val pack : state -> int
(** Encode the state in 4 bits.  With {!unpack}, read only by test_isa
    "word-flags" "flags" and the reference machine of test_vm
    "compiled-ops". *)

val unpack : state -> int -> unit
