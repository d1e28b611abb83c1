module Ir = Jt_ir.Ir

type fn_analysis = {
  fa_fn : Jt_cfg.Cfg.fn;
  fa_liveness : Jt_analysis.Liveness.t;
  fa_canaries : Jt_analysis.Canary.site list;
  fa_scev : Jt_analysis.Scev.summary list;
  fa_vsa : Jt_analysis.Vsa.t Lazy.t;
  fa_domtree : Jt_cfg.Domtree.t Lazy.t;
  fa_defuse : Jt_analysis.Defuse.t Lazy.t;
}

type t = {
  sa_mod : Jt_obj.Objfile.t;
  sa_disasm : Jt_disasm.Disasm.t;
  sa_cfg : Jt_cfg.Cfg.t;
  sa_fns : fn_analysis list;
  sa_fn_array : fn_analysis array;
  sa_reliable_conventions : bool;
  sa_raw_code_ptrs : int list Lazy.t;
  sa_cpa : Jt_analysis.Cpa.t Lazy.t;
  sa_callgraph : Jt_cfg.Callgraph.t Lazy.t;
  sa_summaries : (int, Jt_analysis.Interproc.summary) Hashtbl.t Lazy.t;
  sa_ir : Ir.t Lazy.t;
}

(* Ground truth for the warm-start invariant: every *real* analysis —
   recursive-traversal disassembly and the per-function fixpoints —
   passes through [compute_fresh], which bumps this counter; a [compute]
   answered from its slot does not.  [of_ir] runs [Cfg.build] too, over
   the stored disassembly, but that is the cheap derivation a warm load
   is allowed; it is not counted.  It is a
   cross-domain [Atomic] rather than a [Metrics] counter because pool
   workers analyze on their own domains and the bench gate needs one
   total, not per-domain shards. *)
let analyses = Atomic.make 0

let analyses_performed () = Atomic.get analyses

(* ---- IR conversion: Cfg/analysis values -> pure data and back ---- *)

let mem_to_ir (m : Jt_isa.Insn.mem) : Ir.mem =
  {
    Ir.im_base =
      (match m.Jt_isa.Insn.base with
      | None -> -1
      | Some Jt_isa.Insn.Bpc -> -2
      | Some (Jt_isa.Insn.Breg r) -> Jt_isa.Reg.index r);
    im_index =
      (match m.Jt_isa.Insn.index with
      | None -> -1
      | Some r -> Jt_isa.Reg.index r);
    im_scale = m.Jt_isa.Insn.scale;
    im_disp = m.Jt_isa.Insn.disp;
  }

let mem_of_ir (m : Ir.mem) : Jt_isa.Insn.mem =
  {
    Jt_isa.Insn.base =
      (if m.Ir.im_base = -1 then None
       else if m.Ir.im_base = -2 then Some Jt_isa.Insn.Bpc
       else Some (Jt_isa.Insn.Breg (Jt_isa.Reg.of_index m.Ir.im_base)));
    index =
      (if m.Ir.im_index = -1 then None
       else Some (Jt_isa.Reg.of_index m.Ir.im_index));
    scale = m.Ir.im_scale;
    disp = Jt_isa.Word.of_int m.Ir.im_disp;
  }

let access_to_ir (a : Jt_analysis.Scev.access) : Ir.access =
  {
    Ir.ia_addr = a.Jt_analysis.Scev.a_addr;
    ia_mem = mem_to_ir a.a_mem;
    ia_width = a.a_width;
    ia_is_store = a.a_is_store;
  }

let access_of_ir (a : Ir.access) : Jt_analysis.Scev.access =
  {
    Jt_analysis.Scev.a_addr = a.Ir.ia_addr;
    a_mem = mem_of_ir a.ia_mem;
    a_width = a.ia_width;
    a_is_store = a.ia_is_store;
  }

let scev_to_ir (s : Jt_analysis.Scev.summary) : Ir.scev =
  {
    Ir.is_head = s.Jt_analysis.Scev.ls_head;
    is_preheader = s.ls_preheader;
    is_check_at = s.ls_check_at;
    is_ivar = Jt_isa.Reg.index s.ls_ivar;
    is_init = s.ls_init;
    is_bound =
      (match s.ls_bound with
      | Jt_analysis.Scev.Bimm v -> Ir.Ibnd_imm v
      | Jt_analysis.Scev.Breg r -> Ir.Ibnd_reg (Jt_isa.Reg.index r));
    is_bound_incl = s.ls_bound_incl;
    is_affine = List.map access_to_ir s.ls_affine;
    is_invariant = List.map access_to_ir s.ls_invariant;
  }

let scev_of_ir (s : Ir.scev) : Jt_analysis.Scev.summary =
  {
    Jt_analysis.Scev.ls_head = s.Ir.is_head;
    ls_preheader = s.is_preheader;
    ls_check_at = s.is_check_at;
    ls_ivar = Jt_isa.Reg.of_index s.is_ivar;
    ls_init = s.is_init;
    ls_bound =
      (match s.is_bound with
      | Ir.Ibnd_imm v -> Jt_analysis.Scev.Bimm v
      | Ir.Ibnd_reg r -> Jt_analysis.Scev.Breg (Jt_isa.Reg.of_index r));
    ls_bound_incl = s.is_bound_incl;
    ls_affine = List.map access_of_ir s.is_affine;
    ls_invariant = List.map access_of_ir s.is_invariant;
  }

let canary_to_ir (c : Jt_analysis.Canary.site) : Ir.canary =
  {
    Ir.ic_fn = c.Jt_analysis.Canary.c_fn;
    ic_store = c.c_store_addr;
    ic_after = c.c_after_store;
    ic_disp = c.c_slot_disp;
    ic_loads = c.c_check_loads;
  }

let canary_of_ir (c : Ir.canary) : Jt_analysis.Canary.site =
  {
    Jt_analysis.Canary.c_fn = c.Ir.ic_fn;
    c_store_addr = c.ic_store;
    c_after_store = c.ic_after;
    c_slot_disp = c.ic_disp;
    c_check_loads = c.ic_loads;
  }

let fn_to_ir (fa : fn_analysis) : Ir.fn =
  let all_live, live = Jt_analysis.Liveness.export fa.fa_liveness in
  {
    Ir.if_entry = fa.fa_fn.Jt_cfg.Cfg.f_entry;
    if_live_all = all_live;
    if_live = live;
    if_canaries = List.map canary_to_ir fa.fa_canaries;
    if_scev = List.map scev_to_ir fa.fa_scev;
  }

let build_ir (sa : t) : Ir.t =
  let d = sa.sa_disasm in
  let insns =
    Hashtbl.fold
      (fun _ (i : Jt_disasm.Disasm.insn_info) acc ->
        (i.d_addr, i.d_len) :: acc)
      d.Jt_disasm.Disasm.insns []
    |> List.sort compare |> Array.of_list
  in
  {
    Ir.ir_module = sa.sa_mod.Jt_obj.Objfile.name;
    ir_digest = Jt_obj.Objfile.digest sa.sa_mod;
    ir_reliable = sa.sa_reliable_conventions;
    ir_insns = insns;
    ir_leaders = Jt_disasm.Disasm.block_starts d;
    ir_func_entries = d.Jt_disasm.Disasm.func_entries;
    ir_jump_tables = d.Jt_disasm.Disasm.jump_tables;
    ir_code_ptrs = Lazy.force sa.sa_raw_code_ptrs;
    ir_fns = List.map fn_to_ir sa.sa_fns;
    ir_cpa = Jt_analysis.Cpa.export (Lazy.force sa.sa_cpa);
  }

(* ---- full analysis (the expensive path) ---- *)

(* One function's bundle over its fixpoint facts, computed or imported.
   The heavier whole-function analyses are computed on demand,
   sequentially on the forcing domain, and are not persisted: CPA, the
   one library reader of VSA, is ([ir_cpa]); no library pass reads
   def-use. *)
let fn_analysis ~reliable fn ~liveness ~canaries ~scev =
  {
    fa_fn = fn;
    fa_liveness = liveness;
    fa_canaries = canaries;
    fa_scev = scev;
    fa_vsa = lazy (Jt_analysis.Vsa.analyze ~trust_conventions:reliable fn);
    fa_domtree = Lazy.from_val fn.Jt_cfg.Cfg.f_dom;
    fa_defuse = lazy (Jt_analysis.Defuse.analyze fn);
  }

(* The interprocedural fact base shared by JCFI and JASan: code-pointer
   provenance, the indirect-edge-resolved call graph over it, and
   CPA-refined call summaries.  CPA itself is persisted in the IR
   ([ir_cpa]); the call graph and summaries are cheap deterministic
   functions of it and of the CFG, rebuilt on demand. *)
let compute_cpa sa =
  Jt_analysis.Cpa.analyze ~m:sa.sa_mod
    ~entries:sa.sa_disasm.Jt_disasm.Disasm.func_entries
    ~code_ptrs:(Lazy.force sa.sa_raw_code_ptrs)
    ~jump_table_targets:
      (List.concat_map snd sa.sa_disasm.Jt_disasm.Disasm.jump_tables)
    (List.map (fun fa -> (fa.fa_fn, fa.fa_vsa)) sa.sa_fns)

let cpa_resolver sa site = Jt_analysis.Cpa.resolve (Lazy.force sa.sa_cpa) site

let compute_fresh (m : Jt_obj.Objfile.t) =
  Atomic.incr analyses;
  let disasm = Jt_disasm.Disasm.run m in
  let cfg = Jt_cfg.Cfg.build disasm in
  let reliable =
    not (Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Breaks_calling_convention)
  in
  (* Convention-breaking modules (ipa-ra, hand-written assembly) get the
     section 4.1.2 treatment: calls are summarized by an inter-procedural
     clobber/read analysis instead of the untrustworthy convention. *)
  let interproc_summary =
    if reliable then fun _ -> None
    else
      let summaries = Jt_analysis.Interproc.summaries cfg in
      fun entry ->
        Option.map
          (fun (s : Jt_analysis.Interproc.summary) -> (s.ip_clobbers, s.ip_reads))
          (Hashtbl.find_opt summaries entry)
  in
  let fns =
    Array.map
      (fun fn ->
        fn_analysis ~reliable fn
          ~liveness:
            (if reliable then Jt_analysis.Liveness.analyze fn
             else
               Jt_analysis.Liveness.analyze ~call_summary:interproc_summary
                 ~exit_all_live:true fn)
          ~canaries:(Jt_analysis.Canary.analyze fn)
          ~scev:(Jt_analysis.Scev.analyze fn))
      cfg.Jt_cfg.Cfg.c_fns
  in
  let rec sa =
    {
      sa_mod = m;
      sa_disasm = disasm;
      sa_cfg = cfg;
      sa_fns = Array.to_list fns;
      sa_fn_array = fns;
      sa_reliable_conventions = reliable;
      sa_raw_code_ptrs = lazy (Jt_disasm.Disasm.scan_code_pointers m);
      sa_cpa = lazy (compute_cpa sa);
      sa_callgraph =
        lazy (Jt_cfg.Callgraph.build ~resolve:(cpa_resolver sa) sa.sa_cfg);
      sa_summaries =
        lazy (Jt_analysis.Interproc.summaries ~resolve:(cpa_resolver sa) sa.sa_cfg);
      sa_ir = lazy (build_ir sa);
    }
  in
  sa

(* The domain's last request, keyed by the physical identity of the
   module: the record is immutable, so [==] implies the same bytes and
   the same analysis.  Only a second consecutive request is kept, so at
   most one analysis per domain outlives its callers, and never one for
   a module asked for once (DESIGN §20: keeping every analysis grew the
   cold-code heap past its bound).  Domain-local, so a kept analysis's
   lazy passes are only ever forced by the domain that computed it. *)
type slot = Empty | Seen of Jt_obj.Objfile.t | Kept of Jt_obj.Objfile.t * t

let slot = Domain.DLS.new_key (fun () -> Empty)

let compute (m : Jt_obj.Objfile.t) =
  match Domain.DLS.get slot with
  | Kept (m', sa) when m' == m -> sa
  | Seen m' when m' == m ->
    let sa = compute_fresh m in
    Domain.DLS.set slot (Kept (m, sa));
    sa
  | Empty | Seen _ | Kept _ ->
    Domain.DLS.set slot (Seen m);
    compute_fresh m

(* ---- reconstruction from a stored IR (the warm path) ---- *)

(* Any inconsistency raises [Failure]; callers treat that exactly like a
   corrupt store entry — warn and fall back to [compute]. *)
let of_ir (m : Jt_obj.Objfile.t) (ir : Ir.t) =
  if not (String.equal ir.Ir.ir_digest (Jt_obj.Objfile.digest m)) then
    failwith "Static_analyzer.of_ir: digest mismatch";
  (* Instructions: linear re-decode of the recorded spans from the
     module's own bytes (the digest pins them down), through the decoder
     [Disasm.run] uses; a span whose decode
     fails or disagrees on length means the entry is corrupt.  Spans are
     ascending, so the section that held the last one usually holds the
     next: [Objfile.section_at] only runs when it does not (sections are
     disjoint, so both answer alike). *)
  let insns = Hashtbl.create (Array.length ir.Ir.ir_insns) in
  let last = ref None in
  let section_of addr =
    match !last with
    | Some s when Jt_obj.Section.contains s addr -> s
    | _ -> (
      match Jt_obj.Objfile.section_at m addr with
      | None -> failwith "Static_analyzer.of_ir: span outside any section"
      | Some s as found ->
        last := found;
        s)
  in
  Array.iter
    (fun (addr, len) ->
      match Jt_disasm.Disasm.decode_in m (section_of addr) addr with
      | Some (insn, len') when len' = len ->
        Hashtbl.replace insns addr
          { Jt_disasm.Disasm.d_addr = addr; d_insn = insn; d_len = len }
      | _ -> failwith "Static_analyzer.of_ir: span does not decode")
    ir.Ir.ir_insns;
  let leaders = Array.of_list ir.Ir.ir_leaders in
  Array.iteri
    (fun k a ->
      if k > 0 && a <= leaders.(k - 1) then
        failwith "Static_analyzer.of_ir: leaders not ascending")
    leaders;
  let disasm =
    {
      Jt_disasm.Disasm.dmod = m;
      insns;
      leaders;
      func_entries = ir.Ir.ir_func_entries;
      jump_tables = ir.Ir.ir_jump_tables;
    }
  in
  (* The CFG is rebuilt by the one builder, so it is the cold CFG by
     construction; the stored facts must then name its functions, one
     each, in the same entry order. *)
  let cfg = Jt_cfg.Cfg.build disasm in
  let rec zip cfns ifns =
    match (cfns, ifns) with
    | [], [] -> []
    | (fn : Jt_cfg.Cfg.fn) :: cfns, (f : Ir.fn) :: ifns
      when fn.f_entry = f.Ir.if_entry ->
      (fn, f) :: zip cfns ifns
    | _ -> failwith "Static_analyzer.of_ir: stored functions do not match the CFG"
  in
  let fns =
    List.map
      (fun (fn, (f : Ir.fn)) ->
        fn_analysis ~reliable:ir.Ir.ir_reliable fn
          ~liveness:
            (Jt_analysis.Liveness.import ~all_live:f.if_live_all
               ~facts:f.if_live fn)
          ~canaries:(List.map canary_of_ir f.if_canaries)
          ~scev:(List.map scev_of_ir f.if_scev))
      (zip (Jt_cfg.Cfg.functions cfg) ir.Ir.ir_fns)
    |> Array.of_list
  in
  let rec sa =
    {
      sa_mod = m;
      sa_disasm = disasm;
      sa_cfg = cfg;
      sa_fns = Array.to_list fns;
      sa_fn_array = fns;
      sa_reliable_conventions = ir.Ir.ir_reliable;
      sa_raw_code_ptrs = lazy ir.Ir.ir_code_ptrs;
      sa_cpa = lazy (Jt_analysis.Cpa.import ir.Ir.ir_cpa);
      sa_callgraph =
        lazy (Jt_cfg.Callgraph.build ~resolve:(cpa_resolver sa) sa.sa_cfg);
      sa_summaries =
        lazy
          (Jt_analysis.Interproc.summaries ~resolve:(cpa_resolver sa) sa.sa_cfg);
      sa_ir = lazy ir;
    }
  in
  sa

let to_ir (sa : t) = Lazy.force sa.sa_ir

let analyze ?store (m : Jt_obj.Objfile.t) =
  match store with
  | None -> compute m
  | Some store ->
    let digest = Jt_obj.Objfile.digest m in
    (* On a miss the compute closure stashes the freshly built analysis
       so the caller does not pay [of_ir] on top of [compute]. *)
    let computed = ref None in
    let ir =
      Jt_ir.Store.find_or_compute store ~digest ~name:m.Jt_obj.Objfile.name
        (fun () ->
          let sa = compute m in
          computed := Some sa;
          Lazy.force sa.sa_ir)
    in
    (match !computed with
    | Some sa -> sa
    | None -> (
      match of_ir m ir with
      | sa -> sa
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception e ->
        Printf.eprintf
          "janitizer: warning: stored IR for %s does not reconstruct (%s), \
           re-analyzing\n%!"
          m.Jt_obj.Objfile.name (Printexc.to_string e);
        compute m))

let fn_of_addr t addr =
  let cfg = t.sa_cfg in
  let b = Jt_cfg.Cfg.module_block_of_insn cfg addr in
  if b < 0 || cfg.c_block_fn.(b) < 0 then None
  else Some t.sa_fn_array.(cfg.c_block_fn.(b))

let all_block_addrs t =
  Array.fold_right
    (fun (b : Jt_cfg.Cfg.block) acc -> b.b_addr :: acc)
    t.sa_cfg.Jt_cfg.Cfg.c_blocks []

let code_pointer_scan t =
  List.filter
    (fun v -> Jt_disasm.Disasm.is_insn_boundary t.sa_disasm v)
    (Lazy.force t.sa_raw_code_ptrs)

let function_entries t = t.sa_disasm.Jt_disasm.Disasm.func_entries
