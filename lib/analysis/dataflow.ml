open Jt_cfg
open Jt_disasm.Disasm

(* Generic forward worklist solver over one function's CFG.

   The client supplies a join-semilattice: [join] must be an upper bound
   and [transfer] monotone, or the fixpoint claim is void.  [widen] is
   consulted instead of [join] for a block's in-state once the block has
   been reprocessed more than [widen_after] times, so infinite-height
   lattices (intervals) still terminate; finite lattices can leave it as
   [join]. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
end

let widen_after = 2

module Make (L : LATTICE) = struct
  (* Everything per block is an array over the function's block indices;
     [visits.(b) = 0] means the solver never reached [b], and then
     [r_in.(b)]/[r_out.(b)] hold only the initial filler. *)
  type t = {
    fn : Cfg.fn;
    r_in : L.t array;
    r_out : L.t array;
    visits : int array;
    transfer : insn_info -> L.t -> L.t;
    iterations : int;
  }

  let solve ~entry ~transfer (fn : Cfg.fn) =
    let blocks = fn.Cfg.f_blocks in
    let n = Array.length blocks in
    let r_in = Array.make n entry and r_out = Array.make n entry in
    let visits = Array.make n 0 in
    (* FIFO worklist seeded with the entry, as a ring over [n] slots: a
       block is queued at most once at a time.  A block's in-state is
       the join of its processed predecessors' out-states (plus [entry]
       for the function entry).  Unprocessed predecessors contribute
       nothing — the optimistic initial value — and re-queue their
       successors once they are reached. *)
    let queue = Array.make n 0 and queued = Array.make n false in
    let head = ref 0 and len = ref 0 in
    let enqueue b =
      if not queued.(b) then begin
        queued.(b) <- true;
        queue.((!head + !len) mod n) <- b;
        incr len
      end
    in
    let root = Cfg.block_index fn fn.Cfg.f_entry in
    if root >= 0 then enqueue root;
    let iterations = ref 0 in
    while !len > 0 do
      let a = queue.(!head) in
      head := (!head + 1) mod n;
      decr len;
      queued.(a) <- false;
      incr iterations;
      let preds = fn.Cfg.f_preds.(a) in
      let contrib = ref entry and reached = ref false in
      for j = 0 to Array.length preds - 1 do
        let p = preds.(j) in
        if visits.(p) > 0 then
          if !reached then contrib := L.join !contrib r_out.(p)
          else begin
            contrib := r_out.(p);
            reached := true
          end
      done;
      let proposed =
        if not !reached then entry
        else if a = root then L.join entry !contrib
        else !contrib
      in
      let first = visits.(a) = 0 in
      visits.(a) <- visits.(a) + 1;
      let new_in =
        if first then proposed
        else if visits.(a) > widen_after then L.widen r_in.(a) proposed
        else L.join r_in.(a) proposed
      in
      if first || not (L.equal r_in.(a) new_in) then begin
        r_in.(a) <- new_in;
        let insns = blocks.(a).Cfg.b_insns and out = ref new_in in
        for k = 0 to Array.length insns - 1 do
          out := transfer insns.(k) !out
        done;
        let out = !out in
        let out_changed = first || not (L.equal r_out.(a) out) in
        r_out.(a) <- out;
        if out_changed then Array.iter enqueue fn.Cfg.f_succs.(a)
      end
    done;
    { fn; r_in; r_out; visits; transfer; iterations = !iterations }

  let reached t b = b >= 0 && t.visits.(b) > 0

  let block_in t a =
    let b = Cfg.block_index t.fn a in
    if reached t b then Some t.r_in.(b) else None

  let block_out t a =
    let b = Cfg.block_index t.fn a in
    if reached t b then Some t.r_out.(b) else None

  let iterations t = t.iterations

  (* Per-instruction state: replay the holding block's transfer from its
     in-state (or from [unreached] in a block the solver never reached)
     up to (but not including) the instruction. *)
  let before ?unreached t addr =
    let b = Cfg.insn_block t.fn addr in
    if b < 0 then None
    else
      let start = if reached t b then Some t.r_in.(b) else unreached in
      match start with
      | None -> None
      | Some st ->
        let insns = t.fn.Cfg.f_blocks.(b).Cfg.b_insns in
        let st = ref st and k = ref 0 in
        while insns.(!k).d_addr <> addr do
          st := t.transfer insns.(!k) !st;
          incr k
        done;
        Some !st

  let insn t addr =
    let b = Cfg.insn_block t.fn addr in
    if b < 0 then None
    else
      Array.find_opt
        (fun (i : insn_info) -> i.d_addr = addr)
        t.fn.Cfg.f_blocks.(b).Cfg.b_insns
end
