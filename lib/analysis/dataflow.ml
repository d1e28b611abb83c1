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

module Make (L : LATTICE) = struct
  type t = {
    fn : Cfg.fn;
    mutable block_of_insn : (int, int) Hashtbl.t option;
    r_in : (int, L.t) Hashtbl.t;
    r_out : (int, L.t) Hashtbl.t;
    transfer : insn_info -> L.t -> L.t;
    iterations : int;
  }

  let solve ?(widen_after = 2) ~entry ~transfer (fn : Cfg.fn) =
    let blocks = fn.Cfg.f_blocks in
    let r_in = Hashtbl.create 16 in
    let r_out = Hashtbl.create 16 in
    let visits = Hashtbl.create 16 in
    let out_of a st =
      match Hashtbl.find_opt blocks a with
      | None -> st
      | Some b -> Array.fold_left (fun st i -> transfer i st) st b.Cfg.b_insns
    in
    (* Worklist seeded with the entry; a block's in-state is the join of
       its processed predecessors' out-states (plus [entry] for the
       function entry).  Unprocessed predecessors contribute nothing —
       the optimistic initial value — and re-queue their successors once
       they are reached. *)
    let queue = Queue.create () in
    let queued = Hashtbl.create 16 in
    let enqueue a =
      if (not (Hashtbl.mem queued a)) && Hashtbl.mem blocks a then begin
        Hashtbl.replace queued a ();
        Queue.add a queue
      end
    in
    enqueue fn.Cfg.f_entry;
    let iterations = ref 0 in
    while not (Queue.is_empty queue) do
      let a = Queue.pop queue in
      Hashtbl.remove queued a;
      incr iterations;
      let b = Hashtbl.find blocks a in
      let pred_outs =
        List.filter_map
          (fun p -> if Hashtbl.mem blocks p then Hashtbl.find_opt r_out p else None)
          b.Cfg.b_preds
      in
      let contrib =
        match pred_outs with
        | [] -> None
        | o :: os -> Some (List.fold_left L.join o os)
      in
      let proposed =
        if a = fn.Cfg.f_entry then
          match contrib with None -> entry | Some c -> L.join entry c
        else match contrib with None -> entry | Some c -> c
      in
      let visit_n =
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt visits a) in
        Hashtbl.replace visits a n;
        n
      in
      let new_in =
        match Hashtbl.find_opt r_in a with
        | None -> proposed
        | Some prev ->
          if visit_n > widen_after then L.widen prev proposed
          else L.join prev proposed
      in
      let in_changed =
        match Hashtbl.find_opt r_in a with
        | Some prev -> not (L.equal prev new_in)
        | None -> true
      in
      if in_changed || not (Hashtbl.mem r_out a) then begin
        Hashtbl.replace r_in a new_in;
        let out = out_of a new_in in
        let out_changed =
          match Hashtbl.find_opt r_out a with
          | Some prev -> not (L.equal prev out)
          | None -> true
        in
        Hashtbl.replace r_out a out;
        if out_changed then List.iter enqueue b.Cfg.b_succs
      end
    done;
    { fn; block_of_insn = None; r_in; r_out; transfer;
      iterations = !iterations }

  let block_in t a = Hashtbl.find_opt t.r_in a
  let block_out t a = Hashtbl.find_opt t.r_out a
  let iterations t = t.iterations

  (* Instruction -> enclosing block, built by the first [before] or
     [insn] query: most solves are never queried.  A plain option field
     rather than a [Lazy.t], which raises when two domains force it at
     once; a race here only builds the same table twice. *)
  let block_of_insn t addr =
    let index =
      match t.block_of_insn with
      | Some index -> index
      | None ->
        let index = Hashtbl.create 64 in
        List.iter
          (fun (b : Cfg.block) ->
            Array.iter
              (fun (i : insn_info) -> Hashtbl.replace index i.d_addr b.Cfg.b_addr)
              b.Cfg.b_insns)
          (Cfg.fn_blocks t.fn);
        t.block_of_insn <- Some index;
        index
    in
    Hashtbl.find_opt index addr

  (* Per-instruction state: replay the block's transfer from its in-state
     (or from [unreached] in a block the solver never reached) up to (but
     not including) the instruction. *)
  let before ?unreached t addr =
    match block_of_insn t addr with
    | None -> None
    | Some ba -> (
      let st0 =
        match Hashtbl.find_opt t.r_in ba with
        | Some _ as st0 -> st0
        | None -> unreached
      in
      match (Hashtbl.find_opt t.fn.Cfg.f_blocks ba, st0) with
      | Some b, Some st0 ->
        let st = ref st0 in
        let found = ref None in
        Array.iter
          (fun (i : insn_info) ->
            if i.d_addr = addr && !found = None then found := Some !st;
            if !found = None then st := t.transfer i !st)
          b.Cfg.b_insns;
        !found
      | _ -> None)

  let insn t addr =
    match block_of_insn t addr with
    | None -> None
    | Some ba ->
      Array.find_opt
        (fun (i : insn_info) -> i.d_addr = addr)
        (Hashtbl.find t.fn.Cfg.f_blocks ba).Cfg.b_insns
end
