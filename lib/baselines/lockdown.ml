open Jt_isa

type policy = Strong | Weak

type lmod = {
  ld : Jt_loader.Loader.loaded;
  exports_by_addr : (int, string) Hashtbl.t;
  func_ranges : (int * int) list;  (** (run-time entry, size), sorted *)
  imports : (string, unit) Hashtbl.t;
}

type site_kind = Kicall | Kijmp of (int * int) option | Kret

type rt = {
  policy : policy;
  mods : lmod Jt_loader.Loader.table;  (** the modules now mapped *)
  mutable data_ptrs : (int, unit) Hashtbl.t;
      (** callback heuristic: code addresses found in loaded data sections *)
  sstack : Jt_jcfi.Shadow_stack.t;
  sites : (int, site_kind) Hashtbl.t;
}

let build_lmod (l : Jt_loader.Loader.loaded) =
  let m = l.lmod in
  let exports_by_addr = Hashtbl.create 32 in
  List.iter
    (fun (s : Jt_obj.Symbol.t) ->
      if Jt_obj.Symbol.is_func s then
        Hashtbl.replace exports_by_addr (Jt_loader.Loader.runtime_addr l s.vaddr) s.name)
    (Jt_obj.Objfile.exported_symbols m);
  let func_ranges =
    List.filter_map
      (fun (s : Jt_obj.Symbol.t) ->
        if Jt_obj.Symbol.is_func s then
          Some (Jt_loader.Loader.runtime_addr l s.vaddr, s.size)
        else None)
      (Jt_obj.Objfile.visible_symbols m)
    |> List.sort compare
  in
  let imports = Hashtbl.create 16 in
  List.iter
    (fun (i : Jt_obj.Objfile.import) -> Hashtbl.replace imports i.imp_sym ())
    m.imports;
  { ld = l; exports_by_addr; func_ranges; imports }

let mod_at rt a = Jt_loader.Loader.find rt.mods a

(* Re-scan every loaded module's data sections for words that point into
   some module's code: Lockdown's callback heuristic. *)
let rescan_data_ptrs rt (vm : Jt_vm.Vm.t) =
  let tbl = Hashtbl.create 256 in
  let in_code a =
    match mod_at rt a with
    | Some lm -> Jt_loader.Loader.in_code lm.ld a
    | None -> false
  in
  List.iter
    (fun (l, _) ->
      List.iter
        (fun (s : Jt_obj.Section.t) ->
          if not s.is_code then begin
            let base = Jt_loader.Loader.runtime_addr l s.vaddr in
            let n = Jt_obj.Section.size s in
            for o = 0 to n - 4 do
              let v = Jt_mem.Memory.read32 vm.mem (base + o) in
              if in_code v then Hashtbl.replace tbl v ()
            done
          end)
        l.Jt_loader.Loader.lmod.sections)
    (Jt_loader.Loader.entries rt.mods);
  rt.data_ptrs <- tbl

let fn_range_of lm a =
  List.find_opt (fun (e, sz) -> a >= e && a < e + sz) lm.func_ranges

let known_entry rt a =
  List.exists
    (fun (_, lm) -> List.exists (fun (e, _) -> e = a) lm.func_ranges)
    (Jt_loader.Loader.entries rt.mods)

let icall_ok rt ~site target =
  match (mod_at rt site, mod_at rt target) with
  | Some src, Some dst when src == dst ->
    (* same module: any known function entry *)
    List.exists (fun (e, _) -> e = target) dst.func_ranges
  | Some src, Some dst -> (
    match rt.policy with
    | Strong -> (
      (match Hashtbl.find_opt dst.exports_by_addr target with
      | Some name -> Hashtbl.mem src.imports name
      | None -> false)
      || Hashtbl.mem rt.data_ptrs target)
    | Weak -> known_entry rt target || Hashtbl.mem dst.exports_by_addr target)
  | _ ->
    (* JIT or unknown region *)
    let lo, hi = Jt_vm.Vm.jit_region in
    target >= lo && target < hi

let ijmp_ok rt ~site target =
  match (mod_at rt site, mod_at rt target) with
  | Some src, Some dst when src == dst -> (
    match fn_range_of src site with
    | Some (e, sz) -> target >= e && target < e + sz || known_entry rt target
    | None -> Jt_loader.Loader.in_code dst.ld target)
  | Some _, Some dst ->
    Hashtbl.mem dst.exports_by_addr target || Hashtbl.mem rt.data_ptrs target
  | _ ->
    let lo, hi = Jt_vm.Vm.jit_region in
    target >= lo && target < hi

let client rt =
  {
    Jt_dbt.Dbt.cl_on_block =
      (fun vm0 b _prov ~rules_at:_ ->
        let in_ld_so at =
          match Jt_loader.Loader.module_at vm0.Jt_vm.Vm.loader at with
          | Some l -> String.equal l.lmod.Jt_obj.Objfile.name "ld.so"
          | None -> false
        in
        let plan = Jt_dbt.Dbt.no_plan b in
        Array.iteri
          (fun k (at, insn, len) ->
            let metas = ref [] in
            (match
               (Insn.cti_kind insn, Jt_vm.Vm.compile_target ~next_pc:(at + len) insn)
             with
            | Some (Insn.Cti_call _), _ ->
              metas :=
                {
                  Jt_dbt.Dbt.m_cost = Jt_vm.Cost.cfi_shadow_push;
                  m_action =
                    Some
                      (fun _vm -> Jt_jcfi.Shadow_stack.push rt.sstack (at + len));
                  m_kind = Jt_dbt.Dbt.M_opaque;
                }
                :: !metas
            | Some Insn.Cti_call_ind, Some target ->
              metas :=
                {
                  Jt_dbt.Dbt.m_cost =
                    Jt_vm.Cost.lockdown_indirect + Jt_vm.Cost.cfi_shadow_push;
                  m_action =
                    Some
                      (fun vm ->
                        let tgt = target vm in
                        Hashtbl.replace rt.sites at Kicall;
                        if
                          tgt <> Jt_vm.Vm.sentinel && not (icall_ok rt ~site:at tgt)
                        then
                          Jt_vm.Vm.report_violation vm ~kind:"lockdown-icall"
                            ~addr:tgt;
                        Jt_jcfi.Shadow_stack.push rt.sstack (at + len));
                  m_kind = Jt_dbt.Dbt.M_opaque;
                }
                :: !metas
            | Some Insn.Cti_jmp_ind, Some target ->
              metas :=
                {
                  Jt_dbt.Dbt.m_cost = Jt_vm.Cost.lockdown_indirect;
                  m_action =
                    Some
                      (fun vm ->
                        let tgt = target vm in
                        let range =
                          Option.bind (mod_at rt at) (fun lm -> fn_range_of lm at)
                        in
                        Hashtbl.replace rt.sites at (Kijmp range);
                        if
                          tgt <> Jt_vm.Vm.sentinel && not (ijmp_ok rt ~site:at tgt)
                        then
                          Jt_vm.Vm.report_violation vm ~kind:"lockdown-ijmp"
                            ~addr:tgt);
                  m_kind = Jt_dbt.Dbt.M_opaque;
                }
                :: !metas
            | Some Insn.Cti_ret, _ ->
              if in_ld_so at then
                (* resolver special case: Lockdown's secure loader rewrites
                   this path; treat it as allowed *)
                ()
              else
                metas :=
                  {
                    Jt_dbt.Dbt.m_cost = Jt_vm.Cost.cfi_shadow_pop;
                    m_action =
                      Some
                        (fun vm ->
                          Hashtbl.replace rt.sites at Kret;
                          let tgt =
                            Jt_mem.Memory.read32 vm.Jt_vm.Vm.mem
                              (Jt_vm.Vm.get vm Reg.sp)
                          in
                          if
                            tgt <> Jt_vm.Vm.sentinel
                            && not (Jt_jcfi.Shadow_stack.check_pop rt.sstack tgt)
                          then
                            Jt_vm.Vm.report_violation vm ~kind:"lockdown-ret"
                              ~addr:tgt);
                    m_kind = Jt_dbt.Dbt.M_opaque;
                  }
                  :: !metas
            | Some (Insn.Cti_call_ind | Insn.Cti_jmp_ind), None
            | ( Some
                  ( Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_halt
                  | Insn.Cti_syscall ),
                _ )
            | None, _ ->
              ());
            plan.(k) <- !metas)
          b.insns;
        plan);
  }

type outcome = {
  lk_result : Jt_vm.Vm.result;
  lk_dynamic_air : float;
  lk_false_positive : bool;
}

let dynamic_air rt =
  let mods = List.map snd (Jt_loader.Loader.entries rt.mods) in
  let total =
    float_of_int
      (List.fold_left
         (fun acc lm ->
           acc
           + List.fold_left
               (fun a (s : Jt_obj.Section.t) ->
                 if s.is_code then a + Jt_obj.Section.size s else a)
               0 lm.ld.lmod.sections)
         0 mods)
  in
  let inter_strong src =
    (* exported-by-dst ∩ imported-by-src, plus the heuristic set *)
    List.fold_left
      (fun acc lm ->
        if lm == src then acc
        else
          Hashtbl.fold
            (fun _ name acc ->
              if Hashtbl.mem src.imports name then acc + 1 else acc)
            lm.exports_by_addr acc)
      (Hashtbl.length rt.data_ptrs)
      mods
  in
  let inter_weak () =
    List.fold_left (fun acc lm -> acc + List.length lm.func_ranges) 0 mods
  in
  let site_size (site, kind) =
    match kind with
    | Kret -> 1.0
    | Kicall -> (
      match mod_at rt site with
      | Some src ->
        let intra = List.length src.func_ranges in
        float_of_int
          (intra
          + match rt.policy with Strong -> inter_strong src | Weak -> inter_weak ())
      | None -> total)
    | Kijmp (Some (_, sz)) -> float_of_int sz
    | Kijmp None -> total /. float_of_int (max 1 (List.length mods))
  in
  let sizes =
    Hashtbl.fold (fun a k acc -> site_size (a, k) :: acc) rt.sites []
  in
  Jt_jcfi.Air.air ~sizes ~total

let run ?(fuel = 200_000_000) ?(policy = Strong) ~registry ~main () =
  let rt =
    {
      policy;
      mods = Jt_loader.Loader.table ();
      data_ptrs = Hashtbl.create 16;
      sstack = Jt_jcfi.Shadow_stack.create ();
      sites = Hashtbl.create 64;
    }
  in
  let vm = Jt_vm.Vm.make ~registry () in
  let engine =
    (* Lockdown's libdetox keeps its own constants: no IBL discount, no
       trace stitching — every indirect pays the lightweight profile's
       fixed lookup price. *)
    Jt_dbt.Dbt.create ~vm ~profile:Jt_dbt.Dbt.lightweight ~ibl:false
      ~trace:false ~client:(client rt) ()
  in
  Jt_loader.Loader.track vm.loader rt.mods (fun l -> Some (build_lmod l));
  (* after the tracker, so the scan sees the new module *)
  Jt_loader.Loader.on_load vm.loader (fun _ -> rescan_data_ptrs rt vm);
  Jt_vm.Vm.boot vm ~main;
  if vm.status = Jt_vm.Vm.Running then Jt_dbt.Dbt.run ~fuel engine;
  let result = Jt_vm.Vm.result vm in
  {
    lk_result = result;
    lk_dynamic_air = dynamic_air rt;
    lk_false_positive =
      List.exists
        (fun v ->
          match v.Jt_vm.Vm.v_kind with
          | "lockdown-icall" | "lockdown-ijmp" | "lockdown-ret" -> true
          | _ -> false)
        result.r_violations;
  }
