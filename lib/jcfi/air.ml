open Jt_isa

let air ~sizes ~total =
  match sizes with
  | [] -> 100.0
  | _ ->
    let n = float_of_int (List.length sizes) in
    let mean = List.fold_left ( +. ) 0.0 sizes /. n in
    100.0 *. (1.0 -. (mean /. total))

let code_bytes_of (m : Jt_obj.Objfile.t) =
  List.fold_left
    (fun acc s -> acc + Jt_obj.Section.size s)
    0
    (Jt_obj.Objfile.code_sections m)

let total_code_bytes modules =
  float_of_int (List.fold_left (fun acc m -> acc + code_bytes_of m) 0 modules)

(* ---- dynamic AIR over a finished run ---- *)

(* Shared per-executed-site target-set accounting.  [per_site] switches
   the indirect-call policy being measured: the any-entry baseline, or
   the provenance-refined per-site sets the runtime actually enforces
   (a site without a set degrades to any-entry either way). *)
let site_sizer ~per_site (rt : Jcfi.Rt.t) =
  let tables = List.map snd (Jcfi.Rt.tables rt) in
  let total =
    float_of_int
      (List.fold_left (fun acc t -> acc + Targets.code_bytes t) 0 tables)
  in
  let inter_others self =
    List.fold_left
      (fun acc t -> if t == self then acc else acc + Targets.n_inter t)
      0 tables
  in
  let table_of site = Jt_loader.Loader.find (Jcfi.Rt.targets rt) site in
  let site_size (site, kind) =
    match kind with
    | Jcfi.Rt.Sret -> 1.0
    | Jcfi.Rt.Sicall -> (
      match table_of site with
      | Some t ->
        let intra =
          if per_site then
            match Targets.site_set t ~site with
            | Some ts -> List.length ts
            | None -> Targets.n_intra_call t
          else Targets.n_intra_call t
        in
        float_of_int (intra + inter_others t)
      | None -> total (* JIT code: unconstrained source *))
    | Jcfi.Rt.Sijmp fn_entry -> (
      match table_of site with
      | Some t ->
        float_of_int (Targets.n_jump_targets_of_fn t ~fn_entry + inter_others t)
      | None -> total)
    | Jcfi.Rt.Sijmp_sym range -> (
      match table_of site with
      | Some t ->
        (* The fallback membership test allows function entries and
           recorded jump targets too; the in-function component is at
           byte rather than instruction granularity — strictly weaker
           than the hybrid policy (footnote 15). *)
        let intra =
          Targets.n_jump_targets_of_fn t ~fn_entry:None
          + match range with
            | Some (_, sz) -> max sz 1
            | None -> Targets.code_bytes t
        in
        float_of_int (intra + inter_others t)
      | None -> total)
  in
  (total, site_size)

let dynamic ?(per_site = false) (rt : Jcfi.Rt.t) =
  let total, site_size = site_sizer ~per_site rt in
  let sizes = List.map site_size (Jcfi.Rt.executed_sites rt) in
  air ~sizes ~total

let dynamic_breakdown ?(per_site = false) (rt : Jcfi.Rt.t) =
  let total, site_size = site_sizer ~per_site rt in
  let is_ret = function Jcfi.Rt.Sret -> true | _ -> false in
  let fwd, bwd =
    List.partition (fun (_, k) -> not (is_ret k)) (Jcfi.Rt.executed_sites rt)
  in
  (* Backward sites are shadow-stack checks: |T| = 1 each. *)
  ( air ~sizes:(List.map site_size fwd) ~total,
    air ~sizes:(List.map (fun _ -> 1.0) bwd) ~total )

(* ---- static AIR (BinCFI-style calculation) for JCFI's policy ---- *)

type static_report = {
  sr_air : float;
  sr_fwd : float;
  sr_bwd : float;
  sr_icalls : int;
  sr_resolved : int;
  sr_hist : (int * int) list;
}

let static_jcfi_report ?(per_site = false) modules =
  let total = total_code_bytes modules in
  let analyses =
    List.map (fun m -> (m, Janitizer.Static_analyzer.analyze m)) modules
  in
  (* Per-module counts. *)
  let counts =
    List.map
      (fun ((m : Jt_obj.Objfile.t), sa) ->
        let entries = List.length (Janitizer.Static_analyzer.function_entries sa) in
        let exported =
          List.length
            (List.filter Jt_obj.Symbol.is_func (Jt_obj.Objfile.exported_symbols m))
        in
        let taken =
          let es = Hashtbl.create 64 in
          List.iter
            (fun e -> Hashtbl.replace es e ())
            (Janitizer.Static_analyzer.function_entries sa);
          List.length
            (List.filter (Hashtbl.mem es)
               (Janitizer.Static_analyzer.code_pointer_scan sa))
        in
        (m.name, entries, exported + taken))
      analyses
  in
  let inter_others name =
    List.fold_left
      (fun acc (n, _, inter) -> if String.equal n name then acc else acc + inter)
      0 counts
  in
  let fwd_sizes = ref [] in
  let bwd_sizes = ref [] in
  let icalls = ref 0 in
  let resolved = ref 0 in
  let hist = Hashtbl.create 8 in
  List.iter
    (fun ((m : Jt_obj.Objfile.t), (sa : Janitizer.Static_analyzer.t)) ->
      let _, entries, _ =
        List.find (fun (n, _, _) -> String.equal n m.name) counts
      in
      let cpa = if per_site then Some (Lazy.force sa.sa_cpa) else None in
      let jumps =
        List.fold_left
          (fun acc (_, ts) -> acc + List.length ts)
          0 sa.sa_disasm.Jt_disasm.Disasm.jump_tables
      in
      List.iter
        (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
          let fn = fa.fa_fn in
          let extent =
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
          in
          List.iter
            (fun (b : Jt_cfg.Cfg.block) ->
              Array.iter
                (fun (info : Jt_disasm.Disasm.insn_info) ->
                  match Insn.cti_kind info.d_insn with
                  | Some Insn.Cti_call_ind ->
                    incr icalls;
                    let intra =
                      match
                        Option.bind cpa (fun cpa ->
                            Jt_analysis.Cpa.resolve cpa info.d_addr)
                      with
                      | Some ts ->
                        incr resolved;
                        let n = List.length ts in
                        Hashtbl.replace hist n
                          (1 + Option.value ~default:0 (Hashtbl.find_opt hist n));
                        n
                      | None -> entries
                    in
                    fwd_sizes :=
                      float_of_int (intra + inter_others m.name) :: !fwd_sizes
                  | Some Insn.Cti_jmp_ind ->
                    fwd_sizes :=
                      float_of_int
                        ((extent / 5) + jumps + entries + inter_others m.name)
                      :: !fwd_sizes
                  | Some Insn.Cti_ret -> bwd_sizes := 1.0 :: !bwd_sizes
                  | Some
                      ( Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_call _
                      | Insn.Cti_halt | Insn.Cti_syscall )
                  | None ->
                    ())
                b.b_insns)
            (Jt_cfg.Cfg.fn_blocks fn))
        sa.sa_fns)
    analyses;
  {
    sr_air = air ~sizes:(!fwd_sizes @ !bwd_sizes) ~total;
    sr_fwd = air ~sizes:!fwd_sizes ~total;
    sr_bwd = air ~sizes:!bwd_sizes ~total;
    sr_icalls = !icalls;
    sr_resolved = !resolved;
    sr_hist =
      List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) hist []);
  }

let static_jcfi modules = (static_jcfi_report modules).sr_air
