open Jt_isa
open Jt_cfg
open Jt_disasm.Disasm

type summary = { ip_clobbers : int; ip_reads : int; ip_barrier : bool }

let all_regs_mask = Liveness.reg_mask Reg.all

let everything =
  { ip_clobbers = all_regs_mask; ip_reads = all_regs_mask; ip_barrier = true }

(* The kernel interface: a syscall returns its result in r0 and may read
   the syscall number/arguments in r0-r2; no other register is touched
   (the simulated kernel saves and restores the rest, like a real one).
   It is still a shadow-state barrier — allocator events are
   syscall-gated. *)
let syscall_summary =
  {
    ip_clobbers = Liveness.reg_mask [ Reg.r0 ];
    ip_reads = Liveness.reg_mask [ Reg.r0; Reg.r1; Reg.r2 ];
    ip_barrier = true;
  }

let join a b =
  {
    ip_clobbers = a.ip_clobbers lor b.ip_clobbers;
    ip_reads = a.ip_reads lor b.ip_reads;
    ip_barrier = a.ip_barrier || b.ip_barrier;
  }

let summaries ?(resolve = fun _ -> None) (cfg : Cfg.t) =
  let fns = Cfg.functions cfg in
  let summary = Hashtbl.create 32 in
  List.iter
    (fun fn ->
      Hashtbl.replace summary fn.Cfg.f_entry
        { ip_clobbers = 0; ip_reads = 0; ip_barrier = false })
    fns;
  let lookup t =
    match Hashtbl.find_opt summary t with Some s -> s | None -> everything
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        let acc = ref (Hashtbl.find summary fn.Cfg.f_entry) in
        Array.iter
          (fun (b : Cfg.block) ->
            Array.iter
              (fun info ->
                match info.d_insn with
                | Insn.Call t -> acc := join !acc (lookup t)
                | Insn.Call_ind _ -> (
                  match resolve info.d_addr with
                  | Some targets ->
                    List.iter (fun t -> acc := join !acc (lookup t)) targets
                  | None -> acc := everything)
                | Insn.Syscall _ -> acc := join !acc syscall_summary
                | Insn.Jmp_ind _ ->
                  (* indirect tail transfer (PLT stubs jump through the
                     GOT): the destination is outside the direct call
                     graph, so it may be anything — including another
                     module's allocator *)
                  acc := everything
                | Insn.Load_canary _ as i ->
                  (* reads/writes like any move, but touching the canary
                     secret pins the shadow-state barrier *)
                  acc :=
                    join !acc
                      {
                        ip_clobbers = Insn.def_mask i;
                        ip_reads = Insn.use_mask i;
                        ip_barrier = true;
                      }
                | Insn.Jmp t when Cfg.block_index fn t < 0 ->
                  (* tail call *)
                  acc := join !acc (lookup t)
                | i ->
                  acc :=
                    join !acc
                      {
                        ip_clobbers = Insn.def_mask i;
                        ip_reads = Insn.use_mask i;
                        ip_barrier = false;
                      })
              b.b_insns)
          fn.Cfg.f_blocks;
        if !acc <> Hashtbl.find summary fn.Cfg.f_entry then begin
          Hashtbl.replace summary fn.Cfg.f_entry !acc;
          changed := true
        end)
      fns
  done;
  summary
