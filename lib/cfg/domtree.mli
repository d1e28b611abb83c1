(** Dominator tree over one function's blocks, held as one immediate
    dominator ("idom") per block.

    The function's blocks are numbered [0 .. n-1] in ascending address
    order (the {!Cfg.fn} block index); {!compute} runs the
    Cooper–Harvey–Kennedy iterative algorithm over those indices and is
    the only constructor: a warm load rebuilds the CFG with
    {!Cfg.build}, so no tree is ever read from stored bytes.  The tree
    is laid out in DFS preorder, children by ascending address, so
    {!dominates} is an interval test.  Natural-loop detection takes its
    back edges from it.

    Queries take block addresses, except {!dominates_index}, which takes
    the function's block indices for the passes that work over them.

    Unreachable blocks: a block the entry cannot reach has no idom and
    is dominated only by itself.  {!Cfg.build} never produces one: it
    collects each function by a walk from its entry. *)

type t

val compute :
  entry:int -> addrs:int array -> succs:int array array -> preds:int array array -> t
(** [compute ~entry ~addrs ~succs ~preds]: the tree of the graph over
    blocks [0 .. n-1] rooted at block [entry].  [addrs.(i)] is block
    [i]'s address, ascending; [succs.(i)] and [preds.(i)] name block
    indices and are each other's inverse. *)

val entry : t -> int
(** The entry block's address. *)

val idom : t -> int -> int option
(** Immediate dominator of a block, [None] for the entry, for
    unreachable blocks and for blocks outside the function. *)

val children : t -> int -> int list
(** Blocks immediately dominated by this one, sorted by address. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive on
    the function's blocks; false when either is outside it.  [b]'s
    preorder number lies in [a]'s subtree interval. *)

val strictly_dominates : t -> int -> int -> bool
(** Read only by test_analysis "domtree", against its round-robin
    dominator oracle. *)

val dominates_index : t -> int -> int -> bool
(** {!dominates} by block index. *)
