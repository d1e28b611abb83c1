open Jt_isa
open Jt_cfg
open Jt_disasm.Disasm

module Imap = Map.Make (Int)

(* Reaching definitions: def = instruction address; -1 = entry/unknown. *)
type t = {
  (* per-instruction: register index -> set of reaching def addresses *)
  before : (int, int list Imap.t) Hashtbl.t;
  insn_of : (int, Insn.t) Hashtbl.t;
}

let entry_def = -1

let union_defs a b =
  Imap.union (fun _ x y -> Some (List.sort_uniq compare (x @ y))) a b

let transfer addr insn env =
  (* Calls define the return-value register by convention: allocation-site
     tracing hangs off this. *)
  let defs =
    match insn with
    | Insn.Call _ | Insn.Call_ind _ -> Reg.r0 :: Insn.defs insn
    | _ -> Insn.defs insn
  in
  List.fold_left (fun env r -> Imap.add (Reg.index r) [ addr ] env) env defs

let analyze (fn : Cfg.fn) =
  let blocks = Cfg.fn_blocks fn in
  let entry_env =
    List.fold_left (fun m r -> Imap.add (Reg.index r) [ entry_def ] m) Imap.empty Reg.all
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
  let insn_of = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let env = ref (Hashtbl.find in_env b.Cfg.b_addr) in
      Array.iter
        (fun i ->
          Hashtbl.replace before i.d_addr !env;
          Hashtbl.replace insn_of i.d_addr i.d_insn;
          env := transfer i.d_addr i.d_insn !env)
        b.Cfg.b_insns)
    blocks;
  { before; insn_of }

let reaching_defs t addr r =
  match Hashtbl.find_opt t.before addr with
  | None -> [ entry_def ]
  | Some env -> (
    match Imap.find_opt (Reg.index r) env with
    | Some ds -> ds
    | None -> [ entry_def ])

let traces_to t addr r ~pred =
  let visited = Hashtbl.create 16 in
  let rec go addr r =
    List.exists
      (fun d ->
        if d = entry_def || Hashtbl.mem visited (d, Reg.index r) then false
        else begin
          Hashtbl.replace visited (d, Reg.index r) ();
          match Hashtbl.find_opt t.insn_of d with
          | None -> false
          | Some i ->
            pred i
            ||
            (* Follow register-to-register copies and arithmetic. *)
            (match i with
            | Insn.Mov (_, Insn.Reg src) -> go d src
            | Insn.Binop (_, rd, src) ->
              go d rd
              || (match src with Insn.Reg rs -> go d rs | Insn.Imm _ -> false)
            | Insn.Neg rd | Insn.Not rd -> go d rd
            | Insn.Lea (_, m) ->
              let regs =
                (match m.Insn.base with
                | Some (Insn.Breg b) -> [ b ]
                | Some Insn.Bpc | None -> [])
                @ match m.Insn.index with Some x -> [ x ] | None -> []
              in
              List.exists (go d) regs
            | _ -> false)
        end)
      (reaching_defs t addr r)
  in
  go addr r
