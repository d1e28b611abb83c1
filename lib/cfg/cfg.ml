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
  f_blocks : (int, block) Hashtbl.t;
  f_dom : Domtree.t;
  f_loops : loop list;
}

type t = {
  c_disasm : Disasm.t;
  c_blocks : (int, block) Hashtbl.t;
  c_fns : (int, fn) Hashtbl.t;
}

(* ---- block construction ---- *)

let build_blocks (d : Disasm.t) =
  let leaders = Disasm.block_starts d in
  let table_at = Hashtbl.create 16 in
  List.iter (fun (a, ts) -> Hashtbl.replace table_at a ts) d.jump_tables;
  let blocks = Hashtbl.create 256 in
  List.iter
    (fun leader ->
      match Disasm.insn_at d leader with
      | None -> ()  (* leader seeded into non-decoded space *)
      | Some _ ->
        let insns = ref [] in
        let rec walk a =
          match Disasm.insn_at d a with
          | None -> Thalt  (* decode gap: treat as an opaque stop *)
          | Some info ->
            insns := info :: !insns;
            let next = a + info.d_len in
            if Insn.ends_block info.d_insn then
              match Insn.cti_kind info.d_insn with
              | Some (Insn.Cti_jmp t) -> Tjmp t
              | Some (Insn.Cti_jcc (_, t)) -> Tjcc (t, next)
              | Some Insn.Cti_jmp_ind ->
                Tjmp_ind
                  (match Hashtbl.find_opt table_at a with Some ts -> ts | None -> [])
              | Some (Insn.Cti_call t) -> Tcall (t, next)
              | Some Insn.Cti_call_ind -> Tcall_ind next
              | Some Insn.Cti_ret -> Tret
              | Some Insn.Cti_halt -> Thalt
              | Some Insn.Cti_syscall | None -> assert false
            else if Hashtbl.mem d.leaders next then Tfall next
            else walk next
        in
        let term = walk leader in
        Hashtbl.replace blocks leader
          { b_addr = leader; b_insns = Array.of_list (List.rev !insns); b_term = term;
            b_succs = []; b_preds = [] })
    leaders;
  blocks

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

(* ---- function partition ---- *)

let assign_functions (d : Disasm.t) blocks =
  let entries = d.func_entries in
  let entry_set = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace entry_set e ()) entries;
  let fns = Hashtbl.create 64 in
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
  List.iter
    (fun entry ->
      if Hashtbl.mem blocks entry then begin
        let f_blocks = Hashtbl.create 16 in
        let q = Queue.create () in
        Queue.add entry q;
        while not (Queue.is_empty q) do
          let a = Queue.pop q in
          if (not (Hashtbl.mem f_blocks a)) && Hashtbl.mem blocks a then begin
            let b = Hashtbl.find blocks a in
            Hashtbl.replace f_blocks a b;
            List.iter
              (fun s ->
                (* A jump to another function's entry is a tail call, not
                   part of this function's body. *)
                if not (Hashtbl.mem entry_set s) || s = entry then Queue.add s q)
              (intra_succs b)
          end
        done;
        Hashtbl.replace fns entry (name_of entry, f_blocks)
      end)
    entries;
  fns

(* ---- dominators and natural loops ---- *)

let natural_loops f_blocks dom =
  let loops = Hashtbl.create 8 in
  Hashtbl.iter
    (fun a (b : block) ->
      List.iter
        (fun s ->
          if Hashtbl.mem f_blocks s && Domtree.dominates dom s a then begin
            (* a -> s is a back edge; collect the natural loop of s. *)
            let body = ref (Iset.of_list [ s; a ]) in
            let stack = ref [ a ] in
            while !stack <> [] do
              match !stack with
              | [] -> ()
              | x :: rest ->
                stack := rest;
                if x <> s then
                  let xb = Hashtbl.find_opt f_blocks x in
                  List.iter
                    (fun p ->
                      if Hashtbl.mem f_blocks p && not (Iset.mem p !body)
                      then begin
                        body := Iset.add p !body;
                        stack := p :: !stack
                      end)
                    (match xb with Some xb -> xb.b_preds | None -> [])
            done;
            let merged =
              match Hashtbl.find_opt loops s with
              | Some prev -> Iset.union prev !body
              | None -> !body
            in
            Hashtbl.replace loops s merged
          end)
        b.b_succs)
    f_blocks;
  Hashtbl.fold (fun head body acc -> { l_head = head; l_body = body } :: acc) loops []

let make_fn ~entry ~name f_blocks =
  let f_dom =
    Domtree.compute ~entry
      ~succs:(fun a ->
        List.filter (Hashtbl.mem f_blocks) (Hashtbl.find f_blocks a).b_succs)
      (Hashtbl.fold (fun a _ acc -> a :: acc) f_blocks [])
  in
  { f_entry = entry; f_name = name; f_blocks; f_dom;
    f_loops = natural_loops f_blocks f_dom }

(* ---- top level ---- *)

let build (d : Disasm.t) =
  let blocks = build_blocks d in
  (* preds/succs *)
  Hashtbl.iter
    (fun _ b -> b.b_succs <- List.filter (fun s -> Hashtbl.mem blocks s) (intra_succs b))
    blocks;
  Hashtbl.iter
    (fun a b -> List.iter (fun s -> let sb = Hashtbl.find blocks s in sb.b_preds <- a :: sb.b_preds) b.b_succs)
    blocks;
  let fns = assign_functions d blocks in
  let fns' = Hashtbl.create (Hashtbl.length fns) in
  Hashtbl.iter
    (fun entry (name, f_blocks) ->
      Hashtbl.replace fns' entry (make_fn ~entry ~name f_blocks))
    fns;
  { c_disasm = d; c_blocks = blocks; c_fns = fns' }

let fn_at t a = Hashtbl.find_opt t.c_fns a

let functions t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.c_fns []
  |> List.sort (fun a b -> compare a.f_entry b.f_entry)

let fn_blocks fn =
  Hashtbl.fold (fun _ b acc -> b :: acc) fn.f_blocks []
  |> List.sort (fun a b -> compare a.b_addr b.b_addr)

let block_count t = Hashtbl.length t.c_blocks

let insn_count t =
  Hashtbl.fold (fun _ b acc -> acc + Array.length b.b_insns) t.c_blocks 0
