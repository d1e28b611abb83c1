(** General-purpose registers of the simulated machine.

    There are 16 registers.  [r0]–[r12] are general purpose ([r0] doubles
    as the return-value / first-argument register), [fp] is the frame
    pointer and [sp] the stack pointer.  By software convention, [r0]–[r5]
    are caller-saved argument/scratch registers and [r6]–[r12] are
    callee-saved — conventions that (as in the paper, section 4.1.2) some
    low-level code deliberately violates. *)

type t = private int

val count : int
(** Number of registers (16). *)

val of_index : int -> t
(** [of_index i] for [0 <= i < count].  @raise Invalid_argument otherwise. *)

val index : t -> int

val r0 : t
val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t
val r6 : t
val r7 : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val fp : t
val sp : t

val equal : t -> t -> bool
val compare : t -> t -> int

val caller_saved : t list
(** [r0]–[r5]: not preserved across calls by convention. *)

val callee_saved : t list
(** [r6]–[r13], [fp]: preserved across calls by convention. *)

val all : t list

val name : t -> string
val pp : Format.formatter -> t -> unit
