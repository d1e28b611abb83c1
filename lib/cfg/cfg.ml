open Jt_isa
open Jt_disasm
open Jt_disasm.Disasm

module Iset = Set.Make (Int)

type term =
  | Tjmp of int
  | Tjcc of int * int
  | Tjmp_ind of int list
  | Tcall of int * int
  | Tcall_ind of int
  | Tret
  | Thalt
  | Tfall of int

type block = {
  b_addr : int;
  b_insns : insn_info array;
  b_term : term;
  mutable b_succs : int list;
  mutable b_preds : int list;
}

type loop = { l_head : int; l_body : Iset.t }

type fn = {
  f_entry : int;
  f_name : string option;
  f_blocks : block array;
  f_succs : int array array;
  f_preds : int array array;
  f_first : int array;
  f_dom : Domtree.t;
  f_loops : loop list;
}

type t = {
  c_disasm : Disasm.t;
  c_blocks : block array;
  c_fns : fn array;
  c_block_fn : int array;
}

(* ---- address lookups over address-ordered blocks ---- *)

(* The largest [i] with [blocks.(i).b_addr <= a], or -1. *)
let floor_index (blocks : block array) a =
  let lo = ref 0 and hi = ref (Array.length blocks - 1) and r = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    if blocks.(mid).b_addr <= a then begin
      r := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !r

let exact_index blocks a =
  let i = floor_index blocks a in
  if i >= 0 && blocks.(i).b_addr = a then i else -1

(* The position of the instruction at [a] in [b], or -1. *)
let insn_pos (b : block) a =
  let insns = b.b_insns in
  let rec go k =
    if k >= Array.length insns then -1
    else
      let d = insns.(k).d_addr in
      if d = a then k else if d > a then -1 else go (k + 1)
  in
  go 0

(* The highest-addressed block holding the instruction at [a]: the block
   at or below [a] unless blocks overlap. *)
let holder blocks a =
  let rec down i =
    if i < 0 || insn_pos blocks.(i) a >= 0 then i else down (i - 1)
  in
  down (floor_index blocks a)

(* ---- block construction ---- *)

let no_insn = { d_addr = 0; d_insn = Insn.Nop; d_len = 0 }

(* One block per decoded leader, in leader (address) order.  A walk
   stops at a block-ending instruction, at the next leader, or at a
   decode gap; [next] is the cursor over the sorted leaders. *)
let build_blocks (d : Disasm.t) =
  let leaders = d.leaders in
  let nl = Array.length leaders in
  let table_at = Hashtbl.create 16 in
  List.iter (fun (a, ts) -> Hashtbl.replace table_at a ts) d.jump_tables;
  let buf = ref (Array.make 64 no_insn) in
  let blocks = ref [] in
  for k = 0 to nl - 1 do
    let leader = leaders.(k) in
    if Hashtbl.mem d.insns leader then begin
      let a = ref leader and len = ref 0 and next = ref (k + 1) in
      let term = ref None in
      while Option.is_none !term do
        match Hashtbl.find d.insns !a with
        | exception Not_found -> term := Some Thalt  (* decode gap: an opaque stop *)
        | info ->
          if !len = Array.length !buf then
            buf := Array.append !buf (Array.make !len no_insn);
          !buf.(!len) <- info;
          incr len;
          let after = !a + info.d_len in
          if Insn.ends_block info.d_insn then
            term :=
              Some
                (match Insn.cti_kind info.d_insn with
                | Some (Insn.Cti_jmp t) -> Tjmp t
                | Some (Insn.Cti_jcc (_, t)) -> Tjcc (t, after)
                | Some Insn.Cti_jmp_ind ->
                  Tjmp_ind
                    (Option.value ~default:[] (Hashtbl.find_opt table_at !a))
                | Some (Insn.Cti_call t) -> Tcall (t, after)
                | Some Insn.Cti_call_ind -> Tcall_ind after
                | Some Insn.Cti_ret -> Tret
                | Some Insn.Cti_halt -> Thalt
                | Some Insn.Cti_syscall | None -> assert false)
          else begin
            while !next < nl && leaders.(!next) < after do
              incr next
            done;
            if !next < nl && leaders.(!next) = after then
              term := Some (Tfall after)
            else a := after
          end
      done;
      blocks :=
        { b_addr = leader; b_insns = Array.sub !buf 0 !len;
          b_term = Option.get !term; b_succs = []; b_preds = [] }
        :: !blocks
    end
  done;
  Array.of_list (List.rev !blocks)

(* Intra-procedural successors: calls fall through to the return site,
   the callee is an inter-procedural edge. *)
let intra_succs b =
  match b.b_term with
  | Tjmp t -> [ t ]
  | Tjcc (t, f) -> [ t; f ]
  | Tjmp_ind ts -> ts
  | Tcall (_, ret) -> [ ret ]
  | Tcall_ind ret -> [ ret ]
  | Tret | Thalt -> []
  | Tfall n -> [ n ]

(* [b_succs] as indices into [blocks], without the addresses that are
   not blocks there. *)
let succ_indices blocks (b : block) =
  Array.of_list
    (List.filter_map
       (fun s ->
         let i = exact_index blocks s in
         if i < 0 then None else Some i)
       b.b_succs)

(* ---- dominators and natural loops ---- *)

let natural_loops (blocks : block array) succs preds dom =
  let n = Array.length blocks in
  (* [sources.(h)]: the blocks [a] with a back edge [a -> h], [h]
     dominating [a]; made at the first one, as most functions have none *)
  let sources = ref [||] in
  for a = 0 to n - 1 do
    let ss = succs.(a) in
    for j = 0 to Array.length ss - 1 do
      let h = ss.(j) in
      if Domtree.dominates_index dom h a then begin
        if Array.length !sources = 0 then sources := Array.make n [];
        !sources.(h) <- a :: !sources.(h)
      end
    done
  done;
  let sources = !sources in
  (* The natural loop of [h]: [h] and every block that reaches one of
     its back-edge sources without passing through [h]. *)
  let body = Array.make (Array.length sources) (-1) in
  let stack = Array.make (Array.length sources) 0 in
  let loops = ref [] in
  for h = Array.length sources - 1 downto 0 do
    if sources.(h) <> [] then begin
      body.(h) <- h;
      let sp = ref 0 in
      let visit x =
        if body.(x) <> h then begin
          body.(x) <- h;
          stack.(!sp) <- x;
          incr sp
        end
      in
      List.iter visit sources.(h);
      while !sp > 0 do
        decr sp;
        Array.iter visit preds.(stack.(!sp))
      done;
      let set = ref Iset.empty in
      Array.iteri
        (fun i (b : block) -> if body.(i) = h then set := Iset.add b.b_addr !set)
        blocks;
      loops := { l_head = blocks.(h).b_addr; l_body = !set } :: !loops
    end
  done;
  !loops

(* The function over address-ordered [blocks] and its in-function
   successor indices: predecessors, instruction offsets, dominator tree
   and natural loops.  [root] is the entry's index. *)
let finish_fn ~entry ~name ~root blocks succs =
  let n = Array.length blocks in
  let count = Array.make n 0 in
  for i = 0 to n - 1 do
    let ss = succs.(i) in
    for j = 0 to Array.length ss - 1 do
      count.(ss.(j)) <- count.(ss.(j)) + 1
    done
  done;
  let preds = Array.make n [||] in
  for i = 0 to n - 1 do
    preds.(i) <- Array.make count.(i) 0;
    count.(i) <- 0
  done;
  for i = 0 to n - 1 do
    let ss = succs.(i) in
    for j = 0 to Array.length ss - 1 do
      let s = ss.(j) in
      preds.(s).(count.(s)) <- i;
      count.(s) <- count.(s) + 1
    done
  done;
  let first = Array.make (n + 1) 0 and addrs = Array.make n 0 in
  for i = 0 to n - 1 do
    first.(i + 1) <- first.(i) + Array.length blocks.(i).b_insns;
    addrs.(i) <- blocks.(i).b_addr
  done;
  let dom = Domtree.compute ~entry:root ~addrs ~succs ~preds in
  { f_entry = entry; f_name = name; f_blocks = blocks; f_succs = succs;
    f_preds = preds; f_first = first; f_dom = dom;
    f_loops = natural_loops blocks succs preds dom }

let make_fn ~entry ~name tbl =
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) tbl []
    |> List.sort (fun a b -> compare a.b_addr b.b_addr)
    |> Array.of_list
  in
  let root = exact_index blocks entry in
  if root < 0 then invalid_arg "Cfg.make_fn: the entry is not a block";
  finish_fn ~entry ~name ~root blocks (Array.map (succ_indices blocks) blocks)

(* ---- top level ---- *)

let build (d : Disasm.t) =
  let blocks = build_blocks d in
  let n = Array.length blocks in
  Array.iter
    (fun b ->
      b.b_succs <- List.filter (fun s -> exact_index blocks s >= 0) (intra_succs b))
    blocks;
  let succ = Array.map (succ_indices blocks) blocks in
  for g = n - 1 downto 0 do
    Array.iter
      (fun s -> blocks.(s).b_preds <- blocks.(g).b_addr :: blocks.(s).b_preds)
      succ.(g)
  done;
  (* Functions: a walk from each entry over the module's edges; a jump to
     another function's entry is a tail call, not part of this
     function's body.  [stamp.(g) = f] marks the blocks of function [f],
     [local.(g)] their index in it. *)
  let is_entry = Array.make n false in
  List.iter
    (fun e ->
      let i = exact_index blocks e in
      if i >= 0 then is_entry.(i) <- true)
    d.func_entries;
  let name_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (s : Jt_obj.Symbol.t) ->
        if Jt_obj.Symbol.is_func s && not (Hashtbl.mem tbl s.vaddr) then
          Hashtbl.add tbl s.vaddr s.name)
      (Jt_obj.Objfile.visible_symbols d.dmod
      @ Jt_obj.Objfile.exported_symbols d.dmod);
    fun a -> Hashtbl.find_opt tbl a
  in
  let stamp = Array.make n (-1) and local = Array.make n 0 in
  let queue = Array.make n 0 and block_fn = Array.make n (-1) in
  let fns = ref [] and nfns = ref 0 in
  List.iter
    (fun entry ->
      let e = exact_index blocks entry in
      if e >= 0 then begin
        let f = !nfns in
        stamp.(e) <- f;
        queue.(0) <- e;
        let qlen = ref 1 and qi = ref 0 in
        while !qi < !qlen do
          let ss = succ.(queue.(!qi)) in
          incr qi;
          for j = 0 to Array.length ss - 1 do
            let s = ss.(j) in
            if stamp.(s) <> f && ((not is_entry.(s)) || s = e) then begin
              stamp.(s) <- f;
              queue.(!qlen) <- s;
              incr qlen
            end
          done
        done;
        let ids = Array.sub queue 0 !qlen in
        Array.sort Int.compare ids;
        let m = Array.length ids in
        let fblocks = Array.make m blocks.(e) in
        for i = 0 to m - 1 do
          let g = ids.(i) in
          local.(g) <- i;
          fblocks.(i) <- blocks.(g);
          if block_fn.(g) < 0 then block_fn.(g) <- f
        done;
        (* in-function successors: [succ] without the edges that leave *)
        let succs = Array.make m [||] in
        for i = 0 to m - 1 do
          let ss = succ.(ids.(i)) in
          let k = ref 0 in
          for j = 0 to Array.length ss - 1 do
            if stamp.(ss.(j)) = f then incr k
          done;
          let out = Array.make !k 0 in
          k := 0;
          for j = 0 to Array.length ss - 1 do
            if stamp.(ss.(j)) = f then begin
              out.(!k) <- local.(ss.(j));
              incr k
            end
          done;
          succs.(i) <- out
        done;
        fns :=
          finish_fn ~entry ~name:(name_of entry) ~root:local.(e) fblocks succs
          :: !fns;
        incr nfns
      end)
    d.func_entries;
  { c_disasm = d; c_blocks = blocks; c_fns = Array.of_list (List.rev !fns);
    c_block_fn = block_fn }

let fn_at t a =
  let lo = ref 0 and hi = ref (Array.length t.c_fns - 1) and r = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let f = t.c_fns.(mid) in
    if f.f_entry = a then begin
      r := Some f;
      lo := !hi + 1
    end
    else if f.f_entry < a then lo := mid + 1
    else hi := mid - 1
  done;
  !r

let functions t = Array.to_list t.c_fns
let fn_blocks fn = Array.to_list fn.f_blocks
let block_index fn a = exact_index fn.f_blocks a

let find_block fn a =
  let i = block_index fn a in
  if i < 0 then None else Some fn.f_blocks.(i)

let insn_block fn a = holder fn.f_blocks a

let insn_index fn a =
  let b = holder fn.f_blocks a in
  if b < 0 then -1 else fn.f_first.(b) + insn_pos fn.f_blocks.(b) a

let module_block_of_insn t a = holder t.c_blocks a
let block_count t = Array.length t.c_blocks

let insn_count t =
  Array.fold_left (fun acc b -> acc + Array.length b.b_insns) 0 t.c_blocks
