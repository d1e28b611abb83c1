open Jt_isa
open Jt_cfg
open Jt_disasm.Disasm

type bound = Bimm of int | Breg of Reg.t

type access = { a_addr : int; a_mem : Insn.mem; a_width : int; a_is_store : bool }

type summary = {
  ls_head : int;
  ls_preheader : int;
  ls_check_at : int;
  ls_ivar : Reg.t;
  ls_init : int;
  ls_bound : bound;
  ls_bound_incl : bool;
  ls_affine : access list;
  ls_invariant : access list;
}

let loop_blocks fn (l : Cfg.loop) =
  List.filter_map (Cfg.find_block fn) (Cfg.Iset.elements l.Cfg.l_body)

(* All registers defined anywhere in the loop. *)
let defined_in_loop blocks =
  let defs = Hashtbl.create 8 in
  List.iter
    (fun b ->
      Array.iter
        (fun info ->
          List.iter (fun r -> Hashtbl.replace defs (Reg.index r) ()) (Insn.defs info.d_insn))
        b.Cfg.b_insns)
    blocks;
  defs

(* The head must start with:  cmp ivar, bound ; jcc {>=,>} exit. *)
let head_pattern fn (l : Cfg.loop) =
  match Cfg.find_block fn l.Cfg.l_head with
  | None -> None
  | Some head ->
    if Array.length head.Cfg.b_insns < 2 then None
    else
      let i0 = head.Cfg.b_insns.(0) and i1 = head.Cfg.b_insns.(1) in
      (match (i0.d_insn, i1.d_insn) with
      | Insn.Cmp (ri, bnd), Insn.Jcc (cond, exit_t)
        when not (Cfg.Iset.mem exit_t l.Cfg.l_body) -> (
        let bound =
          match bnd with Insn.Reg r -> Some (Breg r) | Insn.Imm v -> Some (Bimm v)
        in
        match (bound, cond) with
        | Some b, (Insn.Ge | Insn.Uge) -> Some (ri, b, false)
        | Some b, (Insn.Gt | Insn.Ugt) -> Some (ri, b, true)
        | _ -> None)
      | _ -> None)

(* Exactly one definition of the induction register in the loop: add ri, 1. *)
let unit_step blocks ri =
  let defs = ref [] in
  List.iter
    (fun b ->
      Array.iter
        (fun info ->
          if List.exists (Reg.equal ri) (Insn.defs info.d_insn) then
            defs := info.d_insn :: !defs)
        b.Cfg.b_insns)
    blocks;
  match !defs with [ Insn.Binop (Insn.Add, r, Insn.Imm 1) ] -> Reg.equal r ri | _ -> false

let unique_preheader fn (l : Cfg.loop) =
  match Cfg.find_block fn l.Cfg.l_head with
  | None -> None
  | Some head ->
    let outside =
      List.filter (fun p -> not (Cfg.Iset.mem p l.Cfg.l_body)) head.Cfg.b_preds
    in
    (match List.sort_uniq compare outside with
    | [ p ] -> Cfg.find_block fn p
    | _ -> None)

let mem_accesses blocks =
  let acc = ref [] in
  List.iter
    (fun b ->
      Array.iter
        (fun info ->
          match info.d_insn with
          | Insn.Load (w, _, m) ->
            acc :=
              { a_addr = info.d_addr; a_mem = m; a_width = Insn.width_bytes w;
                a_is_store = false }
              :: !acc
          | Insn.Store (w, m, _) ->
            acc :=
              { a_addr = info.d_addr; a_mem = m; a_width = Insn.width_bytes w;
                a_is_store = true }
              :: !acc
          | _ -> ())
        b.Cfg.b_insns)
    blocks;
  List.rev !acc

let reg_unchanged defs r = not (Hashtbl.mem defs (Reg.index r))

(* The preheader's last definition of the induction register must be a
   constant move: that constant is the loop's first index value. *)
let init_value (pre : Cfg.block) ri =
  let init = ref None in
  Array.iter
    (fun info ->
      if List.exists (Reg.equal ri) (Insn.defs info.d_insn) then
        init :=
          (match info.d_insn with
          | Insn.Mov (_, Insn.Imm v) -> Some (Word.to_signed v)
          | _ -> None))
    pre.Cfg.b_insns;
  !init

let analyze (fn : Cfg.fn) =
  List.filter_map
    (fun (l : Cfg.loop) ->
      match head_pattern fn l with
      | None -> None
      | Some (ri, bound, incl) -> (
        let blocks = loop_blocks fn l in
        if not (unit_step blocks ri) then None
        else
          match unique_preheader fn l with
          | None -> None
          | Some pre when Array.length pre.Cfg.b_insns = 0 -> None
          | Some pre ->
            (* Only constant trip counts are hoisted.  A register-held
               bound would be available at the preheader, but proving it
               stable against aliasing writes is beyond what a sound
               binary-level analysis can promise, so those loops keep
               their per-access checks — which is also why the paper's
               hybrid sanitizer still lands at RetroWrite-class overhead
               rather than below it. *)
            let defs = defined_in_loop blocks in
            let bound_ok = match bound with Bimm _ -> true | Breg _ -> false in
            let init = init_value pre ri in
            if (not bound_ok) || init = None then None
            else begin
              let affine = ref [] and invariant = ref [] in
              List.iter
                (fun a ->
                  let m = a.a_mem in
                  match (m.Insn.base, m.Insn.index) with
                  | Some (Insn.Breg rb), Some rx
                    when Reg.equal rx ri && reg_unchanged defs rb ->
                    affine := a :: !affine
                  | Some (Insn.Breg rb), None when reg_unchanged defs rb ->
                    invariant := a :: !invariant
                  | Some (Insn.Breg rb), Some rx
                    when reg_unchanged defs rb && reg_unchanged defs rx ->
                    invariant := a :: !invariant
                  | _ -> ())
                (mem_accesses blocks);
              if !affine = [] && !invariant = [] then None
              else
                let last = pre.Cfg.b_insns.(Array.length pre.Cfg.b_insns - 1) in
                Some
                  {
                    ls_head = l.Cfg.l_head;
                    ls_preheader = pre.Cfg.b_addr;
                    ls_check_at = last.d_addr;
                    ls_ivar = ri;
                    ls_init = Option.get init;
                    ls_bound = bound;
                    ls_bound_incl = incl;
                    ls_affine = List.rev !affine;
                    ls_invariant = List.rev !invariant;
                  }
            end))
    fn.Cfg.f_loops

let covered_addrs summaries =
  let t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      List.iter (fun a -> Hashtbl.replace t a.a_addr ()) s.ls_affine;
      List.iter (fun a -> Hashtbl.replace t a.a_addr ()) s.ls_invariant)
    summaries;
  t
