open Jt_isa
open Jt_cfg

let reg_mask rs = List.fold_left (fun m r -> m lor (1 lsl Reg.index r)) 0 rs

let all_regs = reg_mask Reg.all

(* Live-out at function exits: return value, stack registers, and
   callee-saved registers the caller expects preserved. *)
let exit_live = reg_mask (Reg.r0 :: Reg.sp :: Reg.callee_saved)

let arg_regs = reg_mask [ Reg.r0; Reg.r1; Reg.r2 ]
let caller_saved_mask = reg_mask Reg.caller_saved

type t = {
  facts : (int, int * Flags.set) Hashtbl.t;  (* per-instruction live-before *)
  all_live : bool;
}

(* Per-instruction transfer.  Calls are summarized by convention, or by
   an inter-procedural clobber/read summary when one is supplied (the
   section 4.1.2 extension for convention-breaking modules). *)
let transfer ~call_summary (i : Insn.t) (live, flags) =
  match i with
  | Insn.Call t when call_summary t <> None ->
    let clobbers, reads = Option.get (call_summary t) in
    let live = (live land lnot clobbers) lor reads lor reg_mask [ Reg.sp ] in
    (live, Flags.empty)
  | Insn.Call _ | Insn.Call_ind _ ->
    let live = live land lnot caller_saved_mask in
    let live = live lor arg_regs lor reg_mask (Insn.uses i) in
    (live, Flags.empty)  (* callee clobbers flags; none live across *)
  | _ ->
    let defs = reg_mask (Insn.defs i) in
    let uses = reg_mask (Insn.uses i) in
    let live = (live land lnot defs) lor uses in
    let flags = Flags.union (Flags.diff flags (Insn.flags_def i)) (Insn.flags_use i) in
    (live, flags)

let analyze ?(call_summary = fun _ -> None) ?(exit_all_live = false)
    (fn : Cfg.fn) =
  let facts = Hashtbl.create 64 in
  let blocks = Cfg.fn_blocks fn in
  let live_in = Hashtbl.create 16 in
  (* live_in : block addr -> (reg mask, flag set) at block start *)
  List.iter (fun b -> Hashtbl.replace live_in b.Cfg.b_addr (0, Flags.empty)) blocks;
  let at_exit =
    (* When the module breaks the convention, a caller may consume any
       register — or even flags — the callee leaves behind. *)
    if exit_all_live then (all_regs, Flags.all) else (exit_live, Flags.empty)
  in
  let block_out b =
    match b.Cfg.b_term with
    | Cfg.Tret -> at_exit
    | Cfg.Thalt -> (0, Flags.empty)
    | Cfg.Tjmp_ind [] ->
      (* Unknown indirect-branch targets: assume everything live
         (section 3.3.2). *)
      (all_regs, Flags.all)
    | Cfg.Tjmp t when not (Hashtbl.mem fn.Cfg.f_blocks t) ->
      (* Tail call to another function. *)
      at_exit
    | Cfg.Tjmp _ | Cfg.Tjcc _ | Cfg.Tjmp_ind _ | Cfg.Tcall _ | Cfg.Tcall_ind _
    | Cfg.Tfall _ ->
      List.fold_left
        (fun (lr, lf) s ->
          match Hashtbl.find_opt live_in s with
          | Some (r, f) -> (lr lor r, Flags.union lf f)
          | None -> (all_regs, Flags.all))
        (0, Flags.empty) b.Cfg.b_succs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Backward: process in reverse address order for fast convergence. *)
    List.iter
      (fun b ->
        let out = block_out b in
        let acc = ref out in
        for k = Array.length b.Cfg.b_insns - 1 downto 0 do
          let info = b.Cfg.b_insns.(k) in
          acc := transfer ~call_summary info.Jt_disasm.Disasm.d_insn !acc
        done;
        let prev = Hashtbl.find live_in b.Cfg.b_addr in
        if prev <> !acc then begin
          Hashtbl.replace live_in b.Cfg.b_addr !acc;
          changed := true
        end)
      (List.rev blocks)
  done;
  (* Final pass: record per-instruction facts. *)
  List.iter
    (fun b ->
      let out = block_out b in
      let acc = ref out in
      for k = Array.length b.Cfg.b_insns - 1 downto 0 do
        let info = b.Cfg.b_insns.(k) in
        acc := transfer ~call_summary info.Jt_disasm.Disasm.d_insn !acc;
        Hashtbl.replace facts info.Jt_disasm.Disasm.d_addr !acc
      done)
    blocks;
  { facts; all_live = false }

let live_before t addr =
  if t.all_live then (all_regs, Flags.all)
  else
    match Hashtbl.find_opt t.facts addr with
    | Some f -> f
    | None -> (all_regs, Flags.all)

let dead_regs_before t addr =
  let live, _ = live_before t addr in
  List.filter
    (fun r ->
      (not (Reg.equal r Reg.sp))
      && (not (Reg.equal r Reg.fp))
      && live land (1 lsl Reg.index r) = 0)
    Reg.all

let flags_dead_before t addr =
  let _, flags = live_before t addr in
  Flags.is_empty flags

let conservative (_ : Cfg.fn) = { facts = Hashtbl.create 1; all_live = true }

(* Serialization.  The facts table is the analysis — there is nothing to
   replay — so export/import is a plain dump of (addr, regs, flags)
   triples, flag sets as their underlying bit masks. *)

let flags_of_bits bits =
  Flags.of_list
    (List.filter
       (fun f -> bits land ((Flags.singleton f :> int)) <> 0)
       [ Flags.Zf; Flags.Sf; Flags.Cf; Flags.Of ])

let export t =
  let facts =
    Hashtbl.fold
      (fun addr ((regs, flags) : int * Flags.set) acc ->
        (addr, regs, (flags :> int)) :: acc)
      t.facts []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (t.all_live, facts)

let import ~all_live ~facts () =
  let tbl = Hashtbl.create (max 1 (List.length facts)) in
  List.iter
    (fun (addr, regs, bits) ->
      Hashtbl.replace tbl addr (regs, flags_of_bits bits))
    facts;
  { facts = tbl; all_live }
