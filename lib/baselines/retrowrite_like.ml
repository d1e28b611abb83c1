open Jt_isa

type refusal = Needs_pic of string | Unsupported_feature of string * string

let applicability ~registry ~main =
  List.find_map
    (fun (m : Jt_obj.Objfile.t) ->
      if Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Cxx_exceptions then
        Some (Unsupported_feature (m.name, "C++ exception tables"))
      else if Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Fortran_runtime then
        Some (Unsupported_feature (m.name, "Fortran runtime"))
      else if m.kind = Jt_obj.Objfile.Exec_nonpic then Some (Needs_pic m.name)
      else None)
    (Janitizer.Driver.static_closure ~registry ~main)

let check_cost ~dead ~flags_dead =
  Jt_vm.Cost.asan_check
  + (Jt_vm.Cost.spill_reg * max 0 (2 - dead))
  + if flags_dead then 0 else Jt_vm.Cost.save_restore_flags

(* Per-module instrumentation maps in link coordinates, one row per
   mapped rewritten module: a dlclosed module's row goes with it, so a
   module loaded at the same base never runs its checks. *)
module Sitemap = struct
  type meta = { sm_cost : int; sm_action : Jt_vm.Vm.t -> unit }

  (* Run the metas [at]'s module's map holds for it, when the
     instruction runs, before its op. *)
  let instrument tbl ~at _ _ op =
    let wrapped vm =
      (match Jt_loader.Loader.find tbl at with
      | Some (l, map) -> (
        match Hashtbl.find_opt map (Jt_loader.Loader.link_addr l at) with
        | Some metas ->
          List.iter
            (fun m ->
              Jt_vm.Vm.charge vm m.sm_cost;
              m.sm_action vm)
            metas
        | None -> ())
      | None -> ());
      op vm
    in
    wrapped
end

type op =
  | Check of { ea : Insn.mem; len : int; is_store : bool }
  | Poison of int
  | Unpoison of int

type site = { s_addr : int; s_cost : int; s_op : op }

(* The sites of one rewritten module in application order: per
   function, its access checks in block order, then its canary poisons
   and unpoisons. *)
let site_plan (sa : Janitizer.Static_analyzer.t) =
  let sites = ref [] in
  let add s_addr s_cost s_op = sites := { s_addr; s_cost; s_op } :: !sites in
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      let exempt = Jt_analysis.Canary.exempt_addrs fa.fa_canaries in
      List.iter
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (info : Jt_disasm.Disasm.insn_info) ->
              match info.d_insn with
              | (Insn.Load (w, _, m') | Insn.Store (w, m', _))
                when (not (Hashtbl.mem exempt info.d_addr))
                     && (not (Jt_jasan.Jasan.is_frame_access m'))
                     && not (Jt_jasan.Jasan.is_pcrel m') ->
                let dead =
                  List.length
                    (Jt_analysis.Liveness.dead_regs_before fa.fa_liveness
                       info.d_addr)
                in
                let flags_dead =
                  Jt_analysis.Liveness.flags_dead_before fa.fa_liveness
                    info.d_addr
                in
                let is_store =
                  match info.d_insn with Insn.Store _ -> true | _ -> false
                in
                add info.d_addr
                  (check_cost ~dead:(min 2 dead) ~flags_dead)
                  (Check { ea = m'; len = Insn.width_bytes w; is_store })
              | _ -> ())
            b.b_insns)
        (Jt_cfg.Cfg.fn_blocks fa.fa_fn);
      List.iter
        (fun (site : Jt_analysis.Canary.site) ->
          add site.c_after_store Jt_vm.Cost.asan_canary_op
            (Poison site.c_slot_disp);
          List.iter
            (fun load_addr ->
              add load_addr Jt_vm.Cost.asan_canary_op (Unpoison site.c_slot_disp))
            site.c_check_loads)
        fa.fa_canaries)
    sa.sa_fns;
  Array.of_list (List.rev !sites)

let planned : site array Jt_ir.Rewrite_cache.kind =
  Jt_ir.Rewrite_cache.kind "retrowrite"

let plan m =
  Jt_ir.Rewrite_cache.find_or_compute planned ~tool:"retrowrite" m (fun () ->
      site_plan (Janitizer.Static_analyzer.analyze m))

(* Bind a module's plan to this run's runtime: its per-instruction
   instrumentation, in link-time addresses. *)
let bind rt plan =
  let map : (int, Sitemap.meta list) Hashtbl.t = Hashtbl.create 256 in
  (* Walk the plan backwards and cons, so each address's metas come out
     in application order. *)
  for k = Array.length plan - 1 downto 0 do
    let s = plan.(k) in
    let sm_action =
      match s.s_op with
      | Check { ea; len; is_store } ->
        (* Checked operands are never PC-relative, so the address
           compiles without the instruction's own, and one map serves
           the module at any base. *)
        let ea = Jt_vm.Vm.compile_addr ~next_pc:0 ea in
        fun vm -> Jt_jasan.Jasan.Rt.check rt vm ~addr:(ea vm) ~len ~is_store
      | Poison slot_disp ->
        fun vm -> Jt_jasan.Jasan.Rt.poison_canary rt vm ~slot_disp
      | Unpoison slot_disp ->
        fun vm -> Jt_jasan.Jasan.Rt.unpoison_canary rt vm ~slot_disp
    in
    Hashtbl.replace map s.s_addr
      ({ Sitemap.sm_cost = s.s_cost; sm_action }
      :: Option.value ~default:[] (Hashtbl.find_opt map s.s_addr))
  done;
  map

let run ?fuel ~registry ~main () =
  match applicability ~registry ~main with
  | Some r -> Error r
  | None ->
    let rt = Jt_jasan.Jasan.Rt.create () in
    (* RetroWrite rewrites object *files*, not processes: every registry
       module its reassembly can handle is instrumented ahead of time —
       shared objects only ever reached through [dlopen] included, since
       whoever loads the file gets the rewritten version.  Modules whose
       features defeat reassembly stay uncovered (the dynamic gap). *)
    let rewritable (m : Jt_obj.Objfile.t) =
      (not (Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Cxx_exceptions))
      && not (Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Fortran_runtime)
    in
    let link_maps =
      List.filter_map
        (fun (m : Jt_obj.Objfile.t) ->
          if rewritable m then Some (m.name, bind rt (plan m)) else None)
        registry
    in
    let sitemap = Jt_loader.Loader.table () in
    let vm = Jt_vm.Vm.make ~instrument:(Sitemap.instrument sitemap) ~registry () in
    Jt_loader.Loader.track vm.loader sitemap (fun l ->
        Option.map
          (fun map -> (l, map))
          (List.assoc_opt l.lmod.Jt_obj.Objfile.name link_maps));
    Jt_jasan.Jasan.Rt.attach rt vm;
    Jt_vm.Vm.boot vm ~main;
    Jt_vm.Vm.run ?fuel vm;
    Ok (Jt_vm.Vm.result vm)
