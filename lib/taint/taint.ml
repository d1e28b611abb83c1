open Jt_isa

module Ids = struct
  let propagate = 0x401
  let check_target = 0x402
  let source = 0x403
end

module Rt = struct
  type t = {
    mutable reg_taint : int;  (* bit mask over registers *)
    mem : (int, unit) Hashtbl.t;  (* tainted bytes *)
    mutable n_alerts : int;
  }

  let create () = { reg_taint = 0; mem = Hashtbl.create 256; n_alerts = 0 }

  let bit r = 1 lsl Reg.index r
  let reg_is t r = t.reg_taint land bit r <> 0
  let set_reg t r v =
    if v then t.reg_taint <- t.reg_taint lor bit r
    else t.reg_taint <- t.reg_taint land lnot (bit r)

  let mem_is t a ~len =
    let rec go i = i < len && (Hashtbl.mem t.mem (a + i) || go (i + 1)) in
    go 0

  let set_mem t a ~len v =
    for i = 0 to len - 1 do
      if v then Hashtbl.replace t.mem (a + i) ()
      else Hashtbl.remove t.mem (a + i)
    done

  let tainted_bytes t = Hashtbl.length t.mem
  let alerts t = t.n_alerts

  let operand_taint t = function Insn.Reg r -> reg_is t r | Insn.Imm _ -> false

  let mem_operand_reg_taint t (m : Insn.mem) =
    (match m.base with Some (Insn.Breg r) -> reg_is t r | _ -> false)
    || match m.index with Some r -> reg_is t r | None -> false

  (* Pre-execution propagation, compiled for one instruction: the op
     reads the pre-state and updates the taint state to reflect the
     instruction about to execute. *)
  let propagate t (insn : Insn.t) ~next_pc : Jt_vm.Vm.t -> unit =
    match insn with
    | Mov (rd, src) -> fun _ -> set_reg t rd (operand_taint t src)
    | Lea (rd, m) -> fun _ -> set_reg t rd (mem_operand_reg_taint t m)
    | Load (w, rd, m) ->
      (* value taint plus address taint: data selected by untrusted
         indices is untrusted (the table-indexing hijack pattern) *)
      let ea = Jt_vm.Vm.compile_addr ~next_pc m and len = Insn.width_bytes w in
      fun vm -> set_reg t rd (mem_is t (ea vm) ~len || mem_operand_reg_taint t m)
    | Store (w, m, src) ->
      let ea = Jt_vm.Vm.compile_addr ~next_pc m and len = Insn.width_bytes w in
      fun vm -> set_mem t (ea vm) ~len (operand_taint t src)
    | Binop (_, rd, src) -> fun _ -> set_reg t rd (reg_is t rd || operand_taint t src)
    | Neg _ | Not _ -> fun _ -> ()  (* taint preserved in place *)
    | Load_canary rd -> fun _ -> set_reg t rd false
    | Push src ->
      fun vm ->
        let sp = Jt_vm.Vm.get vm Reg.sp in
        set_mem t (Word.sub sp 4) ~len:4 (operand_taint t src)
    | Pop rd ->
      fun vm ->
        let sp = Jt_vm.Vm.get vm Reg.sp in
        set_reg t rd (mem_is t sp ~len:4)
    | Call _ | Call_ind _ ->
      (* the pushed return address is trusted *)
      fun vm ->
        let sp = Jt_vm.Vm.get vm Reg.sp in
        set_mem t (Word.sub sp 4) ~len:4 false
    | Syscall n ->
      if n = Sysno.read_int then fun _ -> set_reg t Reg.r0 true
      else if n = Sysno.exit_ || n = Sysno.resolve || n = Sysno.cache_flush then
        fun _ -> ()
      else fun _ -> set_reg t Reg.r0 false
    | Nop | Halt | Cmp _ | Test _ | Jmp _ | Jcc _ | Jmp_ind _ | Ret -> fun _ -> ()

  let alert t vm ~addr =
    t.n_alerts <- t.n_alerts + 1;
    Jt_vm.Vm.report_violation vm ~kind:"tainted-target" ~addr

  (* Policy: an indirect transfer steered by tainted data is an alert.
     Compiled for one instruction, like [propagate]. *)
  let check_target t (insn : Insn.t) ~next_pc : Jt_vm.Vm.t -> unit =
    match insn with
    | Jmp_ind (Some r, _) | Call_ind (Some r, _) ->
      fun vm -> if reg_is t r then alert t vm ~addr:(Jt_vm.Vm.get vm r)
    | Jmp_ind (None, Some m) | Call_ind (None, Some m) ->
      let ea = Jt_vm.Vm.compile_addr ~next_pc m in
      fun vm ->
        let a = ea vm in
        if mem_is t a ~len:4 || mem_operand_reg_taint t m then
          alert t vm ~addr:(Jt_mem.Memory.read32 vm.mem a)
    | Ret ->
      fun vm ->
        let sp = Jt_vm.Vm.get vm Reg.sp in
        if mem_is t sp ~len:4 then alert t vm ~addr:(Jt_mem.Memory.read32 vm.mem sp)
    | _ -> fun _ -> ()
end

(* An instruction that can move data between taint-relevant locations. *)
let is_data_mover = function
  | Insn.Mov _ | Insn.Lea _ | Insn.Load _ | Insn.Store _ | Insn.Binop _
  | Insn.Push _ | Insn.Pop _ | Insn.Call _ | Insn.Call_ind _ | Insn.Syscall _
  | Insn.Load_canary _ ->
    true
  | Insn.Neg _ | Insn.Not _ | Insn.Nop | Insn.Halt | Insn.Cmp _ | Insn.Test _
  | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_ind _ | Insn.Ret ->
    false

let needs_check = function
  | Insn.Jmp_ind _ | Insn.Call_ind _ | Insn.Ret -> true
  | _ -> false

let static_pass (sa : Janitizer.Static_analyzer.t) =
  let rules = ref [] in
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      List.iter
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (info : Jt_disasm.Disasm.insn_info) ->
              let emit id =
                rules :=
                  Jt_rules.Rules.make ~id ~bb:b.b_addr ~insn:info.d_addr ()
                  :: !rules
              in
              if is_data_mover info.d_insn then emit Ids.propagate;
              if needs_check info.d_insn then emit Ids.check_target;
              match info.d_insn with
              | Insn.Syscall n when n = Sysno.read_int -> emit Ids.source
              | _ -> ())
            b.b_insns)
        (Jt_cfg.Cfg.fn_blocks fa.fa_fn))
    sa.sa_fns;
  {
    Jt_rules.Rules.rf_module = sa.sa_mod.Jt_obj.Objfile.name;
    rf_digest = Jt_obj.Objfile.digest sa.sa_mod;
    rf_stats = [];
    rf_rules = Janitizer.Tool.noop_marks sa (List.rev !rules);
  }

let prop_cost = 2
let check_cost = Jt_vm.Cost.asan_check / 2
let dyn_extra = 1

let metas_for rt insn ~at ~len ~conservative ~want_prop ~want_check =
  let extra = if conservative then dyn_extra else 0 in
  (if want_prop && is_data_mover insn then
     [
       {
         Jt_dbt.Dbt.m_cost = prop_cost + extra;
         m_action = Some (Rt.propagate rt insn ~next_pc:(at + len));
         m_kind = Jt_dbt.Dbt.M_opaque;
       };
     ]
   else [])
  @
  if want_check && needs_check insn then
    [
      {
        Jt_dbt.Dbt.m_cost = check_cost + extra;
        m_action = Some (Rt.check_target rt insn ~next_pc:(at + len));
        m_kind = Jt_dbt.Dbt.M_opaque;
      };
    ]
  else []

let create () =
  let rt = Rt.create () in
  let client =
    {
      Jt_dbt.Dbt.cl_on_block =
        (fun _vm b prov ~rules_at ->
          let plan = Jt_dbt.Dbt.no_plan b in
          Array.iteri
            (fun k (at, insn, len) ->
              match prov with
              | Jt_dbt.Dbt.Static_rules ->
                let rs = rules_at at in
                let has id =
                  List.exists (fun (r : Jt_rules.Rules.t) -> r.rule_id = id) rs
                in
                plan.(k) <-
                  metas_for rt insn ~at ~len ~conservative:false
                    ~want_prop:(has Ids.propagate)
                    ~want_check:(has Ids.check_target)
              | Jt_dbt.Dbt.Dynamic_only ->
                plan.(k) <-
                  metas_for rt insn ~at ~len ~conservative:true ~want_prop:true
                    ~want_check:true)
            b.insns;
          plan);
    }
  in
  ( {
      Janitizer.Tool.t_setup = (fun _ ~rules_for:_ -> ());
      t_static = static_pass;
      t_tag = "taint";
      t_client = client;
    },
    rt )
