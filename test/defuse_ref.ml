(* The reference reaching-definitions analysis: a round-robin fixpoint
   over every block of the function, reachable or not, holding one state
   per instruction.  {!Jt_analysis.Defuse} solves the same equations on
   the shared worklist solver and answers a query by replaying its block;
   the analysis tests hold every answer of it to this model. *)

open Jt_isa
open Jt_cfg
open Jt_disasm.Disasm

module Imap = Map.Make (Int)

let entry_def = -1

let union_defs a b =
  Imap.union (fun _ x y -> Some (List.sort_uniq compare (x @ y))) a b

let transfer addr insn env =
  let defs =
    match insn with
    | Insn.Call _ | Insn.Call_ind _ -> Reg.r0 :: Insn.defs insn
    | _ -> Insn.defs insn
  in
  List.fold_left (fun env r -> Imap.add (Reg.index r) [ addr ] env) env defs

(* Address -> register index -> reaching definitions, just before the
   instruction. *)
let analyze (fn : Cfg.fn) =
  let blocks = Cfg.fn_blocks fn in
  let entry_env =
    List.fold_left
      (fun m r -> Imap.add (Reg.index r) [ entry_def ] m)
      Imap.empty Reg.all
  in
  let in_env = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace in_env b.Cfg.b_addr Imap.empty) blocks;
  Hashtbl.replace in_env fn.Cfg.f_entry entry_env;
  let out_of b =
    let env = ref (Hashtbl.find in_env b.Cfg.b_addr) in
    Array.iter (fun i -> env := transfer i.d_addr i.d_insn !env) b.Cfg.b_insns;
    !env
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let out = out_of b in
        List.iter
          (fun s ->
            match Hashtbl.find_opt in_env s with
            | None -> ()
            | Some prev ->
              let merged = union_defs prev out in
              if not (Imap.equal (fun a b -> a = b) merged prev) then begin
                Hashtbl.replace in_env s merged;
                changed := true
              end)
          b.Cfg.b_succs)
      blocks
  done;
  let before = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let env = ref (Hashtbl.find in_env b.Cfg.b_addr) in
      Array.iter
        (fun i ->
          Hashtbl.replace before i.d_addr !env;
          env := transfer i.d_addr i.d_insn !env)
        b.Cfg.b_insns)
    blocks;
  before

let reaching_defs before addr r =
  match Hashtbl.find_opt before addr with
  | None -> [ entry_def ]
  | Some env -> (
    match Imap.find_opt (Reg.index r) env with
    | Some ds -> ds
    | None -> [ entry_def ])
