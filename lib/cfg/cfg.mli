(** Control-flow graphs over disassembled modules.

    Unlike Janus — which skips [.init]/[.fini]/[.plt] and functions
    without loops — Janitizer builds basic blocks and control flow for
    every executable section and every discovered function, because
    security instrumentation must reach all of them (section 3.3.1).

    {b Dense indices.}  {!build} numbers every block once per module, in
    ascending address order: a block's module index is its position in
    [c_blocks].  Each function holds its own blocks as an address-ordered
    array too, and its edges as arrays of indices into it; dominators,
    natural loops, liveness and the dataflow solver all work over those
    indices.  Addresses are looked up by binary search, at the boundary
    where a client asks about an address.  The order guarantees:
    functions by entry, blocks by address, loops by header. *)

module Iset : Set.S with type elt = int

type term =
  | Tjmp of int
  | Tjcc of int * int  (** taken, fallthrough *)
  | Tjmp_ind of int list  (** recovered jump-table targets (may be empty) *)
  | Tcall of int * int  (** callee, return site *)
  | Tcall_ind of int  (** return site *)
  | Tret
  | Thalt
  | Tfall of int  (** block split by a leader: unconditional fallthrough *)

type block = {
  b_addr : int;
  b_insns : Jt_disasm.Disasm.insn_info array;  (** ascending addresses *)
  b_term : term;
  mutable b_succs : int list;
      (** intra-procedural successor block addresses, in terminator
          order (a repeated target repeats) *)
  mutable b_preds : int list;  (** the inverse of [b_succs], ascending *)
}

type loop = {
  l_head : int;
  l_body : Iset.t;  (** block addresses, head included *)
}

type fn = {
  f_entry : int;
  f_name : string option;
  f_blocks : block array;
      (** ascending address; a block's position is its index in the
          function *)
  f_succs : int array array;
      (** per block index: the indices of its successors inside the
          function, in [b_succs] order *)
  f_preds : int array array;  (** the inverse of [f_succs], ascending *)
  f_first : int array;
      (** [f_first.(i)]: the position of block [i]'s first instruction
          in the function's instruction order (blocks by address, each
          block's instructions in order); the last of its [n + 1]
          entries is the function's instruction count.  Per-instruction
          facts ({!Jt_analysis.Liveness}) are arrays in this order. *)
  f_dom : Domtree.t;  (** the function's dominator tree *)
  f_loops : loop list;
      (** natural loops, one per header, sorted by header address:
          [a -> s] is a back edge when [s] dominates [a] *)
}

type t = {
  c_disasm : Jt_disasm.Disasm.t;
  c_blocks : block array;
      (** all blocks, ascending address: a block's position is its module
          index *)
  c_fns : fn array;  (** ascending entry *)
  c_block_fn : int array;
      (** module block index -> position in [c_fns] of the first function
          holding the block, or [-1] *)
}

val build : Jt_disasm.Disasm.t -> t

val make_fn : entry:int -> name:string option -> (int, block) Hashtbl.t -> fn
(** The function over these blocks (the entry among them): its edges are
    the [b_succs] between them, then its dominator tree and natural
    loops.  For hand-built graphs; {!build} numbers its functions
    without the table. *)

val fn_at : t -> int -> fn option
(** The function with this entry. *)

val functions : t -> fn list
(** [c_fns] as a list: sorted by entry address. *)

val fn_blocks : fn -> block list
(** [f_blocks] as a list: sorted by address. *)

val block_index : fn -> int -> int
(** The index of the function's block at this address, or [-1]. *)

val find_block : fn -> int -> block option

val insn_block : fn -> int -> int
(** The index of the function's block holding the instruction at this
    address, or [-1].  When several hold it (decode runs that
    re-synchronize after a jump into the middle of an instruction), the
    highest-addressed one.  A binary search; an address no block holds
    costs a scan of the lower blocks. *)

val insn_index : fn -> int -> int
(** The position of the instruction at this address in the function's
    instruction order (see [f_first]), through {!insn_block}; [-1] when
    no block holds it. *)

val module_block_of_insn : t -> int -> int
(** {!insn_block} over the whole module: the module index of the block
    holding the instruction, or [-1].  With [c_block_fn] this is the
    CFG's instruction -> block -> function index. *)

val block_count : t -> int
val insn_count : t -> int
(** Read only by test_cfg "structure" "counts" and test_taint "hybrid"
    "rule selectivity". *)
