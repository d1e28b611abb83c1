(** SSA-style def-use chain tracing (section 3.3.3).

    Builds intra-procedural reaching definitions and exposes chain
    queries: "does the value in register [r] at instruction [a] derive
    from an instruction satisfying [p]?"  This is the building block the
    paper uses for tracing allocation-site provenance and for
    taint-tracking-style analyses (the repository's custom-tool example
    uses it for exactly that).  No library pass reads it, and it is not
    persisted in the IR: {!analyze} runs on first use.  The fixpoint is
    {!Dataflow.Make}'s, holding one state per block; a query replays its
    block from the block's in-state. *)

open Jt_isa

type t

val analyze : Jt_cfg.Cfg.fn -> t

val reaching_defs : t -> int -> Reg.t -> int list
(** Addresses of definitions of [r] that may reach the program point just
    before instruction [addr]; the pseudo-address [-1] stands for "value
    from function entry / unknown". *)

val traces_to : t -> int -> Reg.t -> pred:(Insn.t -> bool) -> bool
(** Transitively follow register-to-register dataflow backwards from the
    value of [r] before [addr]; true if any contributing definition
    satisfies [pred].  Memory is not traced through (stores/loads break
    the chain), matching a conservative binary-level tracer. *)
