(** Generic forward dataflow over one function's CFG.

    A reusable worklist solver in the style of Macaw's machine-code
    analyses: the client provides a join-semilattice and a per-instruction
    transfer function; the solver computes the least fixpoint of the usual
    in/out equations over {!Jt_cfg.Cfg.fn} blocks, with a widening hook so
    infinite-height domains (intervals) terminate.

    Soundness contract: [join] must be an upper bound of its arguments,
    [transfer] monotone, and [widen prev next] an upper bound of both that
    guarantees stabilization of every ascending chain.  Must-analyses
    (e.g. available checks, {!Avail.Lattice}) are expressed by flipping
    the order — an intersection-like [join] and the optimistic
    "everything" top left implicit: unreached predecessors simply
    contribute nothing.  A block's in-state only ever changes by a
    [join] with its previous value, so on a finite-height lattice the
    solver stabilizes even for a transfer that is not monotone
    ({!Avail.gen} reads the incoming state).

    The solver works over the function's dense block indices
    ({!Jt_cfg.Cfg.fn}): in- and out-states, visit counts and the queued
    flags are arrays indexed by block, the worklist a FIFO ring of block
    indices seeded with the entry, successors queued in [b_succs] order
    and predecessors joined in ascending order.  Addresses are resolved
    only by the queries below, through the CFG's lookups. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen previous proposed]: applied in place of [join] for a block
      visited more than twice.  Finite lattices can use [join]. *)
end

module Make (L : LATTICE) : sig
  type t

  val solve :
    entry:L.t ->
    transfer:(Jt_disasm.Disasm.insn_info -> L.t -> L.t) ->
    Jt_cfg.Cfg.fn ->
    t
  (** Run to fixpoint.  [entry] is the state at the function entry.
      [L.widen] replaces [L.join] for a block visited more than twice. *)

  val block_in : t -> int -> L.t option
  (** Fixpoint state at a block's entry ([None] for blocks the solver
      never reached — unknown addresses). *)

  val block_out : t -> int -> L.t option
  (** Fixpoint state at a block's exit.  Read only by test_analysis
      "dataflow" "may vs must". *)

  val before : ?unreached:L.t -> t -> int -> L.t option
  (** State just before an instruction, obtained by replaying the
      holding block ({!Jt_cfg.Cfg.insn_block}) from its in-state.  In a
      block the solver never reached the replay starts from
      [unreached], and without it the answer is [None]. *)

  val insn : t -> int -> Jt_disasm.Disasm.insn_info option
  (** The instruction at this address, if one of the function's blocks
      holds it. *)

  val iterations : t -> int
  (** Blocks processed until stabilization (solver diagnostics). *)
end
