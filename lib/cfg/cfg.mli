(** Control-flow graphs over disassembled modules.

    Unlike Janus — which skips [.init]/[.fini]/[.plt] and functions
    without loops — Janitizer builds basic blocks and control flow for
    every executable section and every discovered function, because
    security instrumentation must reach all of them (section 3.3.1). *)

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
  b_insns : Jt_disasm.Disasm.insn_info array;
  b_term : term;
  mutable b_succs : int list;  (** intra-procedural successor block addrs *)
  mutable b_preds : int list;
}

type loop = {
  l_head : int;
  l_body : Iset.t;  (** block addresses, head included *)
}

type fn = {
  f_entry : int;
  f_name : string option;
  f_blocks : (int, block) Hashtbl.t;
  f_dom : Domtree.t;  (** the function's dominator tree *)
  f_loops : loop list;
      (** natural loops, one per header: [a -> s] is a back edge when
          [s] dominates [a] *)
}

type t = {
  c_disasm : Jt_disasm.Disasm.t;
  c_blocks : (int, block) Hashtbl.t;  (** all blocks, by leader address *)
  c_fns : (int, fn) Hashtbl.t;  (** by entry address *)
}

val build : Jt_disasm.Disasm.t -> t

val make_fn : entry:int -> name:string option -> (int, block) Hashtbl.t -> fn
(** The function over these blocks: its dominator tree (over the
    [b_succs] edges between them) and its natural loops.  {!build} makes
    every function this way. *)

val fn_at : t -> int -> fn option
val functions : t -> fn list
(** Sorted by entry address. *)

val fn_blocks : fn -> block list
(** Sorted by address. *)

val block_count : t -> int
val insn_count : t -> int
