open Jt_isa

type refusal = Needs_pic of string | Unsupported_feature of string * string

(* Transitive dependency closure over the registry (the "ldd" view). *)
let closure ~registry ~main =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (m : Jt_obj.Objfile.t) -> Hashtbl.replace by_name m.name m)
    registry;
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      (match Hashtbl.find_opt by_name name with
      | Some m ->
        List.iter go m.deps;
        order := m :: !order
      | None -> ())
    end
  in
  go main;
  List.rev !order

let applicability ~registry ~main =
  List.find_map
    (fun (m : Jt_obj.Objfile.t) ->
      if Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Cxx_exceptions then
        Some (Unsupported_feature (m.name, "C++ exception tables"))
      else if Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Fortran_runtime then
        Some (Unsupported_feature (m.name, "Fortran runtime"))
      else if m.kind = Jt_obj.Objfile.Exec_nonpic then Some (Needs_pic m.name)
      else None)
    (closure ~registry ~main)

let check_cost ~dead ~flags_dead =
  Jt_vm.Cost.asan_check
  + (Jt_vm.Cost.spill_reg * max 0 (2 - dead))
  + if flags_dead then 0 else Jt_vm.Cost.save_restore_flags

(* Per-module instrumentation maps in link coordinates: each is rebased
   into run-time coordinates when the loader commits its module and
   purged when the module unloads. *)
module Sitemap = struct
  type meta = { sm_cost : int; sm_action : Jt_vm.Vm.t -> unit }

  (* Keep the run-time table [tbl] current with loader callbacks; call
     before [Vm.boot]. *)
  let track tbl ~maps_for (vm : Jt_vm.Vm.t) =
    let by_module : (int, int list) Hashtbl.t = Hashtbl.create 8 in
    Jt_loader.Loader.on_load vm.Jt_vm.Vm.loader (fun l ->
        match maps_for l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name with
        | None -> ()
        | Some map ->
          let keys = ref [] in
          Hashtbl.iter
            (fun a metas ->
              let ra = Jt_loader.Loader.runtime_addr l a in
              Hashtbl.replace tbl ra metas;
              keys := ra :: !keys)
            map;
          Hashtbl.replace by_module l.load_order !keys);
    (* Purging on unload is what makes reused bases safe: non-PIC
       objects always map at base 0, so a dlclose'd module's entries
       would otherwise shadow whatever loads there next. *)
    Jt_loader.Loader.on_unload vm.Jt_vm.Vm.loader (fun l ->
        match Hashtbl.find_opt by_module l.Jt_loader.Loader.load_order with
        | None -> ()
        | Some keys ->
          List.iter (Hashtbl.remove tbl) keys;
          Hashtbl.remove by_module l.load_order)

  (* Run the metas the table holds for [at], when the instruction runs,
     before its op. *)
  let instrument tbl ~at _ _ op =
    let wrapped vm =
      (match Hashtbl.find_opt tbl at with
      | Some metas ->
        List.iter
          (fun m ->
            Jt_vm.Vm.charge vm m.sm_cost;
            m.sm_action vm)
          metas
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
           compiles without the instruction's own; the sitemap rebases
           the whole map per module. *)
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
    let sitemap =
      Hashtbl.create
        (List.fold_left (fun n (_, map) -> n + Hashtbl.length map) 0 link_maps)
    in
    let vm = Jt_vm.Vm.make ~instrument:(Sitemap.instrument sitemap) ~registry () in
    Sitemap.track sitemap ~maps_for:(fun name -> List.assoc_opt name link_maps) vm;
    Jt_jasan.Jasan.Rt.attach rt vm;
    Jt_vm.Vm.boot vm ~main;
    Jt_vm.Vm.run ?fuel vm;
    Ok (Jt_vm.Vm.result vm)
