(* The reference liveness analysis: a round-robin fixpoint over block
   live-in states keyed by address, with the per-instruction transfer
   built from [Insn.defs]/[Insn.uses] lists, then one replay per block
   into a table of live-before facts keyed by instruction address.
   {!Jt_analysis.Liveness} solves the same equations over block indices
   with per-block kill/gen summaries; test_cfg holds every instruction's
   live-before to this model. *)

open Jt_isa
open Jt_cfg

let reg_mask rs = List.fold_left (fun m r -> m lor (1 lsl Reg.index r)) 0 rs
let all_regs = reg_mask Reg.all
let exit_live = reg_mask (Reg.r0 :: Reg.sp :: Reg.callee_saved)
let arg_regs = reg_mask [ Reg.r0; Reg.r1; Reg.r2 ]
let caller_saved_mask = reg_mask Reg.caller_saved

let transfer ~call_summary (i : Insn.t) (live, flags) =
  match i with
  | Insn.Call t when call_summary t <> None ->
    let clobbers, reads = Option.get (call_summary t) in
    ((live land lnot clobbers) lor reads lor reg_mask [ Reg.sp ], Flags.empty)
  | Insn.Call _ | Insn.Call_ind _ ->
    let live = live land lnot caller_saved_mask in
    (live lor arg_regs lor reg_mask (Insn.uses i), Flags.empty)
  | _ ->
    let live = (live land lnot (reg_mask (Insn.defs i))) lor reg_mask (Insn.uses i) in
    (live, Flags.union (Flags.diff flags (Insn.flags_def i)) (Insn.flags_use i))

(* Instruction address -> (live register mask, live flags) just before
   it; an instruction several blocks hold gets the fact of the
   highest-addressed one. *)
let analyze ?(call_summary = fun _ -> None) ?(exit_all_live = false) (fn : Cfg.fn) =
  let blocks = Cfg.fn_blocks fn in
  let member = Hashtbl.create 16 in
  List.iter (fun (b : Cfg.block) -> Hashtbl.replace member b.b_addr ()) blocks;
  let live_in = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) -> Hashtbl.replace live_in b.b_addr (0, Flags.empty))
    blocks;
  let at_exit =
    if exit_all_live then (all_regs, Flags.all) else (exit_live, Flags.empty)
  in
  let block_out (b : Cfg.block) =
    match b.b_term with
    | Cfg.Tret -> at_exit
    | Cfg.Thalt -> (0, Flags.empty)
    | Cfg.Tjmp_ind [] -> (all_regs, Flags.all)
    | Cfg.Tjmp t when not (Hashtbl.mem member t) -> at_exit
    | _ ->
      List.fold_left
        (fun (lr, lf) s ->
          match Hashtbl.find_opt live_in s with
          | Some (r, f) -> (lr lor r, Flags.union lf f)
          | None -> (all_regs, Flags.all))
        (0, Flags.empty) b.b_succs
  in
  let replay (b : Cfg.block) record =
    let acc = ref (block_out b) in
    for k = Array.length b.b_insns - 1 downto 0 do
      let info = b.b_insns.(k) in
      acc := transfer ~call_summary info.Jt_disasm.Disasm.d_insn !acc;
      record info.Jt_disasm.Disasm.d_addr !acc
    done;
    !acc
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Cfg.block) ->
        let v = replay b (fun _ _ -> ()) in
        if Hashtbl.find live_in b.b_addr <> v then begin
          Hashtbl.replace live_in b.b_addr v;
          changed := true
        end)
      (List.rev blocks)
  done;
  let facts = Hashtbl.create 64 in
  List.iter (fun b -> ignore (replay b (Hashtbl.replace facts))) blocks;
  facts

let live_before facts addr =
  Option.value ~default:(all_regs, Flags.all) (Hashtbl.find_opt facts addr)
