open Jt_isa
open Jt_cfg
open Jt_disasm.Disasm

type site = {
  c_fn : int;
  c_store_addr : int;
  c_after_store : int;
  c_slot_disp : int;
  c_check_loads : int list;
}

let fp_slot (m : Insn.mem) =
  match (m.base, m.index) with
  | Some (Insn.Breg b), None when Reg.equal b Reg.fp -> Some (Word.to_signed m.disp)
  | _ -> None

let analyze (fn : Cfg.fn) =
  (* Pass 1: find ldcanary destinations, then stores of those registers to
     fp-relative slots, scanning linearly within each block. *)
  let stores = ref [] in
  Array.iter
    (fun b ->
      (* the registers holding the canary, as a bit mask *)
      let canary_regs = ref 0 in
      Array.iter
        (fun info ->
          match info.d_insn with
          | Insn.Load_canary r ->
            canary_regs := !canary_regs lor (1 lsl Reg.index r)
          | Insn.Store (Insn.W4, m, Insn.Reg r)
            when !canary_regs land (1 lsl Reg.index r) <> 0 -> (
            match fp_slot m with
            | Some disp ->
              stores := (info.d_addr, info.d_addr + info.d_len, disp) :: !stores
            | None -> ())
          | i -> canary_regs := !canary_regs land lnot (Insn.def_mask i))
        b.Cfg.b_insns)
    fn.Cfg.f_blocks;
  (* Pass 2: loads of a known canary slot anywhere in the function are
     check loads. *)
  let sites =
    List.map
      (fun (store_addr, after, disp) ->
        let checks = ref [] in
        Array.iter
          (fun b ->
            Array.iter
              (fun info ->
                match info.d_insn with
                | Insn.Load (Insn.W4, _, m) when fp_slot m = Some disp ->
                  checks := info.d_addr :: !checks
                | _ -> ())
              b.Cfg.b_insns)
          fn.Cfg.f_blocks;
        {
          c_fn = fn.Cfg.f_entry;
          c_store_addr = store_addr;
          c_after_store = after;
          c_slot_disp = disp;
          c_check_loads = List.rev !checks;
        })
      (List.rev !stores)
  in
  (* Deduplicate by slot. *)
  let seen = Hashtbl.create 4 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen s.c_slot_disp then false
      else begin
        Hashtbl.replace seen s.c_slot_disp ();
        true
      end)
    sites

let exempt_addrs sites =
  let t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace t s.c_store_addr ();
      List.iter (fun a -> Hashtbl.replace t a ()) s.c_check_loads)
    sites;
  t
