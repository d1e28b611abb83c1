(** Dominator tree over one function's blocks, held as one immediate
    dominator ("idom") per block.

    {!compute} runs the Cooper–Harvey–Kennedy iterative algorithm over
    reverse postorder and is the only constructor: a warm load rebuilds
    the CFG with {!Cfg.build}, so no tree is ever read from stored
    bytes.  The tree is laid out in DFS preorder, so {!dominates} is an
    interval test.  Natural-loop detection takes its back edges from it.

    Unreachable blocks: a block the entry cannot reach has no idom and
    is dominated only by itself.  {!Cfg.build} never produces one: it
    collects each function by a walk from its entry. *)

type t

val compute : entry:int -> succs:(int -> int list) -> int list -> t
(** [compute ~entry ~succs blocks]: the tree of the graph over [blocks]
    rooted at [entry].  [succs b] must name only members of [blocks]. *)

val entry : t -> int

val idom : t -> int -> int option
(** Immediate dominator of a block, [None] for the entry, for
    unreachable blocks and for blocks outside the function. *)

val children : t -> int -> int list
(** Blocks immediately dominated by this one, sorted by address. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive on
    the function's blocks; false when either is outside it.  O(1): [b]'s
    preorder number lies in [a]'s subtree interval. *)

val strictly_dominates : t -> int -> int -> bool
