open Jt_isa

type config = { cf_forward : bool; cf_backward : bool }

let default_config = { cf_forward = true; cf_backward = true }

let tag c =
  match (c.cf_forward, c.cf_backward) with
  | true, true -> "jcfi"
  | true, false -> "jcfi-fwd"
  | false, true -> "jcfi-bwd"
  | false, false -> "jcfi-none"

module Ids = struct
  let icall = 0x201
  let ijmp = 0x202
  let shadow_push = 0x203
  let ret_check = 0x204
  let resolver_ret = 0x205
  let tgt_func = Targets.tgt_func
  let tgt_export = Targets.tgt_export
  let tgt_addr_taken = Targets.tgt_addr_taken
  let tgt_jump = Targets.tgt_jump

  let site_targets = Targets.site_targets
  (** per-call-site resolved target set from the provenance analysis;
      [insn] is the call site, [data] one chunk (≤ 4) of its targets —
      a large set spans several rules anchored at the same site *)
end

module Rt = struct
  type site_kind = Sicall | Sijmp of int option | Sijmp_sym of (int * int) option | Sret

  type t = {
    tbl : Targets.t Jt_loader.Loader.table;
    sstack : Shadow_stack.t;
    config : config;
    sites : (int, site_kind) Hashtbl.t;
    sym_ranges : (int, Targets.t * (int * int) option) Hashtbl.t;
        (* the dynamic fallback's function range per ijmp site, with the
           table it was read from: a module mapped later at the same
           address has a table of its own *)
    observed : (int * int, unit) Hashtbl.t;
        (* executed (indirect-call site, target) pairs — the dynamic side
           of the CPA refinement-soundness oracle *)
  }

  let create config =
    {
      tbl = Jt_loader.Loader.table ();
      sstack = Shadow_stack.create ();
      config;
      sites = Hashtbl.create 64;
      sym_ranges = Hashtbl.create 16;
      observed = Hashtbl.create 64;
    }

  let executed_sites t = Hashtbl.fold (fun a k acc -> (a, k) :: acc) t.sites []

  let observed_icalls t =
    Hashtbl.fold (fun (site, tgt) () acc -> (site, tgt) :: acc) t.observed []

  let targets t = t.tbl
  let tables t = Jt_loader.Loader.entries t.tbl

  let record t site kind = Hashtbl.replace t.sites site kind

  let in_jit_region a =
    let lo, hi = Jt_vm.Vm.jit_region in
    a >= lo && a < hi

  (* Forward-edge policy for calls (and the resolver's ret-as-call). *)
  let icall_ok t ~site target =
    match
      (Jt_loader.Loader.find t.tbl site, Jt_loader.Loader.find t.tbl target)
    with
    | Some src, Some dst ->
      if src == dst then
        Targets.call_ok dst ~site target || Targets.inter_module_ok dst target
      else Targets.inter_module_ok dst target
    | _, None -> in_jit_region target  (* dynamically generated code *)
    | None, Some dst ->
      (* call out of JIT code into a module *)
      Targets.inter_module_ok dst target || Targets.intra_call_ok dst target

  (* Nearest-symbol function range of a site, for the dynamic fallback's
     byte-granularity jump policy (footnote 15).  A walk over the
     module's table, so it is resolved once per site and table. *)
  let sym_range_of t site =
    match Jt_loader.Loader.find t.tbl site with
    | None -> None
    | Some tbl -> (
      match Hashtbl.find_opt t.sym_ranges site with
      | Some (tbl', range) when tbl' == tbl -> range
      | Some _ | None ->
        let range = Targets.func_range tbl site in
        Hashtbl.replace t.sym_ranges site (tbl, range);
        range)

  (* [range] is the site's [sym_range_of] when [fn_entry] is [None]. *)
  let ijmp_ok t ~site ~fn_entry ~range target =
    match
      (Jt_loader.Loader.find t.tbl site, Jt_loader.Loader.find t.tbl target)
    with
    | Some src, Some dst ->
      if src == dst then
        (match fn_entry with
        | Some _ -> Targets.jump_ok dst ~fn_entry target
        | None ->
          (* Without static function boundaries the dynamic fallback can
             only use the nearest symbol's byte extent — the weaker
             policy behind the hybrid/dynamic AIR gap of footnote 15. *)
          Targets.jump_ok dst ~fn_entry target
          ||
          (match range with
          | Some (e, sz) -> target >= e && target < e + max sz 1
          | None -> Jt_loader.Loader.in_code dst.Targets.tg_module target))
      else Targets.inter_module_ok dst target
    | _, None -> in_jit_region target
    | None, Some dst -> Targets.inter_module_ok dst target

  (* The phase sentinel is the process-startup return path (the analog of
     returning into the C runtime's startup frames): always permitted. *)
  let check_icall t vm ~site target =
    record t site Sicall;
    if target <> Jt_vm.Vm.sentinel then begin
      Hashtbl.replace t.observed (site, target) ();
      if not (icall_ok t ~site target) then
        Jt_vm.Vm.report_violation vm ~kind:"cfi-icall" ~addr:target
    end

  let check_ijmp t vm ~site ~fn_entry target =
    let range =
      match fn_entry with
      | Some _ ->
        record t site (Sijmp fn_entry);
        None
      | None ->
        let range = sym_range_of t site in
        record t site (Sijmp_sym range);
        range
    in
    if
      target <> Jt_vm.Vm.sentinel
      && not (ijmp_ok t ~site ~fn_entry ~range target)
    then Jt_vm.Vm.report_violation vm ~kind:"cfi-ijmp" ~addr:target

  let push_shadow t (vm : Jt_vm.Vm.t) ret_addr =
    ignore vm;
    Shadow_stack.push t.sstack ret_addr

  let check_ret t (vm : Jt_vm.Vm.t) ~site =
    record t site Sret;
    let target = Jt_mem.Memory.read32 vm.mem (Jt_vm.Vm.get vm Reg.sp) in
    if target <> Jt_vm.Vm.sentinel && not (Shadow_stack.check_pop t.sstack target)
    then Jt_vm.Vm.report_violation vm ~kind:"cfi-ret" ~addr:target

  (* The ld.so lazy-binding resolver returns *into* the resolved function:
     treat as a forward transfer (section 4.2.3). *)
  let check_resolver_ret t vm ~site =
    let target = Jt_mem.Memory.read32 vm.Jt_vm.Vm.mem (Jt_vm.Vm.get vm Reg.sp) in
    check_icall t vm ~site target
end

(* ---- static pass ---- *)

let fn_extent (fn : Jt_cfg.Cfg.fn) =
  List.fold_left
    (fun hi (b : Jt_cfg.Cfg.block) ->
      let last =
        if Array.length b.b_insns = 0 then b.b_addr
        else
          let i = b.b_insns.(Array.length b.b_insns - 1) in
          i.Jt_disasm.Disasm.d_addr + i.d_len
      in
      max hi last)
    fn.Jt_cfg.Cfg.f_entry
    (Jt_cfg.Cfg.fn_blocks fn)
  - fn.Jt_cfg.Cfg.f_entry

let static_pass ~config (sa : Janitizer.Static_analyzer.t) =
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  let m = sa.sa_mod in
  let resolver_fn =
    if String.equal m.Jt_obj.Objfile.name "ld.so" then
      Option.map
        (fun (s : Jt_obj.Symbol.t) -> s.vaddr)
        (Jt_obj.Objfile.find_symbol m "__dl_resolve")
    else None
  in
  (* Instrumentation points. *)
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      let fn = fa.fa_fn in
      let entry = fn.Jt_cfg.Cfg.f_entry in
      let size = fn_extent fn in
      List.iter
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (info : Jt_disasm.Disasm.insn_info) ->
              let bb = b.b_addr and at = info.d_addr in
              match Insn.cti_kind info.d_insn with
              | Some (Insn.Cti_call _) ->
                if config.cf_backward then
                  emit (Jt_rules.Rules.make ~id:Ids.shadow_push ~bb ~insn:at ())
              | Some Insn.Cti_call_ind ->
                if config.cf_forward then
                  emit (Jt_rules.Rules.make ~id:Ids.icall ~bb ~insn:at ());
                if config.cf_backward then
                  emit (Jt_rules.Rules.make ~id:Ids.shadow_push ~bb ~insn:at ())
              | Some Insn.Cti_jmp_ind ->
                if config.cf_forward then
                  emit
                    (Jt_rules.Rules.make ~id:Ids.ijmp ~bb ~insn:at
                       ~data:[ entry; size ] ())
              | Some Insn.Cti_ret ->
                if resolver_fn = Some entry then begin
                  if config.cf_forward then
                    emit (Jt_rules.Rules.make ~id:Ids.resolver_ret ~bb ~insn:at ())
                end
                else if config.cf_backward then
                  emit (Jt_rules.Rules.make ~id:Ids.ret_check ~bb ~insn:at ())
              | Some
                  ( Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_halt
                  | Insn.Cti_syscall )
              | None ->
                ())
            b.b_insns)
        (Jt_cfg.Cfg.fn_blocks fn);
      (* Valid-target hints. *)
      emit
        (Jt_rules.Rules.make ~id:Ids.tgt_func ~bb:entry ~insn:entry ~data:[ size ] ()))
    sa.sa_fns;
  List.iter
    (fun (s : Jt_obj.Symbol.t) ->
      if Jt_obj.Symbol.is_func s && s.exported then
        emit (Jt_rules.Rules.make ~id:Ids.tgt_export ~bb:s.vaddr ~insn:s.vaddr ()))
    (Jt_obj.Objfile.exported_symbols m);
  (* Address-taken functions: scan constants refined to function entries
     (the BinCFI refinement of 4.2.1). *)
  let entries = Hashtbl.create 64 in
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      Hashtbl.replace entries fa.fa_fn.Jt_cfg.Cfg.f_entry ())
    sa.sa_fns;
  List.iter
    (fun v ->
      if Hashtbl.mem entries v then
        emit (Jt_rules.Rules.make ~id:Ids.tgt_addr_taken ~bb:v ~insn:v ()))
    (Janitizer.Static_analyzer.code_pointer_scan sa);
  (* Allow list (section 4.2.3): scanned constants that decode plausibly
     but were never reached by control-flow recovery — computed-goto
     labels in data tables, abnormal callback targets in low-level
     libraries. *)
  List.iter
    (fun v ->
      if
        (not (Jt_disasm.Disasm.is_insn_boundary sa.sa_disasm v))
        && Jt_disasm.Disasm.speculative_insn_boundary m v
      then emit (Jt_rules.Rules.make ~id:Ids.tgt_jump ~bb:v ~insn:v ()))
    (Jt_disasm.Disasm.scan_code_pointers m);
  (* Recovered jump-table targets. *)
  List.iter
    (fun (_, targets) ->
      List.iter
        (fun tgt -> emit (Jt_rules.Rules.make ~id:Ids.tgt_jump ~bb:tgt ~insn:tgt ()))
        targets)
    sa.sa_disasm.Jt_disasm.Disasm.jump_tables;
  (* Per-site provenance target sets.  Rules carry at most four data
     words, so a site's set is chunked across several rules anchored at
     the same call site; [Targets.site_set] unions them back.  Sites the
     provenance analysis left at Top emit nothing and degrade to the
     any-entry policy. *)
  if config.cf_forward then
    List.iter
      (fun (s : Jt_analysis.Cpa.site) ->
        match s.Jt_analysis.Cpa.cs_targets with
        | None -> ()
        | Some ts ->
          let rec chunk = function
            | [] -> ()
            | a :: b :: c :: d :: rest ->
              emit
                (Jt_rules.Rules.make ~id:Ids.site_targets ~bb:s.cs_site
                   ~insn:s.cs_site ~data:[ a; b; c; d ] ());
              chunk rest
            | rest ->
              emit
                (Jt_rules.Rules.make ~id:Ids.site_targets ~bb:s.cs_site
                   ~insn:s.cs_site ~data:rest ())
          in
          chunk ts)
      (Jt_analysis.Cpa.sites (Lazy.force sa.sa_cpa));
  let rules = Janitizer.Tool.noop_marks sa (List.rev !rules) in
  { Jt_rules.Rules.rf_module = m.Jt_obj.Objfile.name;
    rf_digest = Jt_obj.Objfile.digest m; rf_stats = []; rf_rules = rules }

(* ---- runtime tables ---- *)

let module_targets l = function
  | Some f -> Targets.of_hints l f
  | None -> Targets.of_module_runtime l

(* ---- instrumentation plans ---- *)

let hybrid_fwd_cost = Jt_vm.Cost.cfi_forward_check

(* Without liveness, the fallback saves every register the check
   sequence touches plus the flags. *)
let dyn_fwd_cost =
  Jt_vm.Cost.cfi_forward_check + (4 * Jt_vm.Cost.spill_reg)
  + Jt_vm.Cost.save_restore_flags

(* A forward-edge check of the indirect transfer [insn] at [at], given
   the target it is about to reach; none when [insn] is not one. *)
let forward_meta ~cost ~at ~insn ~len check =
  Option.map
    (fun target ->
      {
        Jt_dbt.Dbt.m_cost = cost;
        m_action = Some (fun vm -> check vm (target vm));
        m_kind = Jt_dbt.Dbt.M_opaque;
      })
    (Jt_vm.Vm.compile_target ~next_pc:(at + len) insn)

(* Interpret one static rule at one instruction into a meta op; [at] and
   [len] are run-time coordinates of the anchor instruction, [pic_base]
   the containing module's load base (0 for position-dependent code) for
   adjusting rule-carried link addresses.  Shared between the DBT plan
   below and the AOT emitter (Jt_emit), whose materialized sites run the
   same checks with the same costs.  A forward-edge rule whose anchor is
   not an indirect transfer yields no meta. *)
let static_meta rt (r : Jt_rules.Rules.t) ~at ~insn ~len ~pic_base =
  if r.rule_id = Ids.icall then
    forward_meta ~cost:hybrid_fwd_cost ~at ~insn ~len (fun vm tgt ->
        Rt.check_icall rt vm ~site:at tgt)
  else if r.rule_id = Ids.ijmp then begin
    let entry = r.data.(0) + pic_base in
    forward_meta ~cost:hybrid_fwd_cost ~at ~insn ~len (fun vm tgt ->
        Rt.check_ijmp rt vm ~site:at ~fn_entry:(Some entry) tgt)
  end
  else if r.rule_id = Ids.shadow_push then
    Some
      {
        Jt_dbt.Dbt.m_cost = Jt_vm.Cost.cfi_shadow_push;
        m_action = Some (fun vm -> Rt.push_shadow rt vm (at + len));
        m_kind = Jt_dbt.Dbt.M_opaque;
      }
  else if r.rule_id = Ids.ret_check then
    Some
      {
        Jt_dbt.Dbt.m_cost = Jt_vm.Cost.cfi_shadow_pop;
        m_action = Some (fun vm -> Rt.check_ret rt vm ~site:at);
        m_kind = Jt_dbt.Dbt.M_opaque;
      }
  else if r.rule_id = Ids.resolver_ret then
    Some
      {
        Jt_dbt.Dbt.m_cost = hybrid_fwd_cost;
        m_action = Some (fun vm -> Rt.check_resolver_ret rt vm ~site:at);
        m_kind = Jt_dbt.Dbt.M_opaque;
      }
  else None

let plan_static rt (b : Jt_dbt.Dbt.block) ~rules_at vm0 =
  let plan = Jt_dbt.Dbt.no_plan b in
  (* the block's rules all come from the index of the module holding
     its start *)
  let pic_base =
    match Jt_loader.Loader.module_at vm0.Jt_vm.Vm.loader b.bb_addr with
    | Some l when Jt_obj.Objfile.is_pic l.lmod -> l.base
    | Some _ | None -> 0
  in
  Array.iteri
    (fun k (at, insn, len) ->
      let metas =
        List.filter_map
          (fun r -> static_meta rt r ~at ~insn ~len ~pic_base)
          (rules_at at)
      in
      plan.(k) <- metas)
    b.insns;
  plan

let plan_dynamic rt (b : Jt_dbt.Dbt.block) vm0 =
  let plan = Jt_dbt.Dbt.no_plan b in
  let config = rt.Rt.config in
  let in_ld_so at =
    match Jt_loader.Loader.module_at vm0.Jt_vm.Vm.loader at with
    | Some l -> String.equal l.lmod.Jt_obj.Objfile.name "ld.so"
    | None -> false
  in
  Array.iteri
    (fun k (at, insn, len) ->
      let metas = ref [] in
      (match Insn.cti_kind insn with
      | Some (Insn.Cti_call _) ->
        if config.cf_backward then
          metas :=
            {
              Jt_dbt.Dbt.m_cost =
                    Jt_vm.Cost.cfi_shadow_push + (2 * Jt_vm.Cost.spill_reg)
                    + Jt_vm.Cost.save_restore_flags;
              m_action = Some (fun vm -> Rt.push_shadow rt vm (at + len));
              m_kind = Jt_dbt.Dbt.M_opaque;
            }
            :: !metas
      | Some Insn.Cti_call_ind ->
        if config.cf_forward then
          Option.iter
            (fun m -> metas := m :: !metas)
            (forward_meta ~cost:dyn_fwd_cost ~at ~insn ~len (fun vm tgt ->
                 Rt.check_icall rt vm ~site:at tgt));
        if config.cf_backward then
          metas :=
            {
              Jt_dbt.Dbt.m_cost =
                    Jt_vm.Cost.cfi_shadow_push + (2 * Jt_vm.Cost.spill_reg)
                    + Jt_vm.Cost.save_restore_flags;
              m_action = Some (fun vm -> Rt.push_shadow rt vm (at + len));
              m_kind = Jt_dbt.Dbt.M_opaque;
            }
            :: !metas
      | Some Insn.Cti_jmp_ind ->
        if config.cf_forward then
          Option.iter
            (fun m -> metas := m :: !metas)
            (forward_meta ~cost:dyn_fwd_cost ~at ~insn ~len (fun vm tgt ->
                 (* No static function extents here: weaker policy. *)
                 Rt.check_ijmp rt vm ~site:at ~fn_entry:None tgt))
      | Some Insn.Cti_ret ->
        if in_ld_so at then begin
          if config.cf_forward then
            metas :=
              {
                Jt_dbt.Dbt.m_cost = dyn_fwd_cost;
                m_action = Some (fun vm -> Rt.check_resolver_ret rt vm ~site:at);
                m_kind = Jt_dbt.Dbt.M_opaque;
              }
              :: !metas
        end
        else if config.cf_backward then
          metas :=
            {
              Jt_dbt.Dbt.m_cost =
                    Jt_vm.Cost.cfi_shadow_pop + (2 * Jt_vm.Cost.spill_reg)
                    + Jt_vm.Cost.save_restore_flags;
              m_action = Some (fun vm -> Rt.check_ret rt vm ~site:at);
              m_kind = Jt_dbt.Dbt.M_opaque;
            }
            :: !metas
      | Some (Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_halt | Insn.Cti_syscall)
      | None ->
        ());
      plan.(k) <- !metas)
    b.insns;
  plan

let create ?(config = default_config) () =
  let rt = Rt.create config in
  let client =
    {
      Jt_dbt.Dbt.cl_on_block =
        (fun vm b prov ~rules_at ->
          match prov with
          | Jt_dbt.Dbt.Static_rules -> plan_static rt b ~rules_at vm
          | Jt_dbt.Dbt.Dynamic_only -> plan_dynamic rt b vm);
    }
  in
  ( {
      Janitizer.Tool.t_setup =
        (fun vm ~rules_for ->
          Jt_loader.Loader.track vm.Jt_vm.Vm.loader (Rt.targets rt) (fun l ->
              let name = l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name in
              let targets = module_targets l (rules_for name) in
              if Jt_trace.Trace.is_enabled () then
                Jt_trace.Trace.emit
                  (Jt_trace.Trace.Cfi_table
                     {
                       name;
                       entries = Targets.n_entries targets;
                     });
              Some targets));
      t_static = static_pass ~config;
      t_tag = tag config;
      t_client = client;
    },
    rt )
