open Jt_isa

type liveness_mode = Live_full | Live_none

let redzone_bytes = 16

module Ids = struct
  let mem_check = 0x101
  let poison_canary = 0x102
  let unpoison_canary = 0x103
  let range_check = 0x104
  let invariant_check = 0x105
end

module Rt = struct
  type t = {
    shadow : Shadow.t;
    (* allocation id -> (addr, size) for blocks still in quarantine;
       lets [Ev_alloc] at a recycled address re-poison the overlap with
       any range that is *still* quarantined, so reallocation never
       silently clears a neighbour's [Heap_freed] bytes. *)
    quarantined : (int, int * int) Hashtbl.t;
    (* The counters [check] bumps: the domain-local record of the domain
       that last attached this runtime to a machine, so a check pays no
       [Domain.DLS] lookup. *)
    mutable counters : Jt_metrics.Metrics.Counters.t;
  }

  let create () =
    {
      shadow = Shadow.create ();
      quarantined = Hashtbl.create 16;
      counters = Jt_metrics.Metrics.Counters.current ();
    }

  let shadow t = t.shadow

  let bad_free_kind = function
    | Jt_vm.Alloc.Double_free -> "double-free"
    | Jt_vm.Alloc.Invalid_free -> "invalid-free"

  (* Shadow maintenance for one allocator event.  Split out from
     [attach] so property tests can drive a bare [Alloc.t] without a
     VM; [report] receives bad-free verdicts. *)
  let on_alloc_event t ~report ev =
    match ev with
    | Jt_vm.Alloc.Ev_alloc { id = _; addr; size; redzone } ->
      Shadow.poison t.shadow (addr - redzone) ~len:redzone Shadow.Heap_redzone;
      Shadow.unpoison t.shadow addr ~len:size;
      (* Right redzone additionally covers the alignment slack. *)
      let right = (addr + size + 7) land lnot 7 in
      Shadow.poison t.shadow (addr + size)
        ~len:(right - (addr + size) + redzone)
        Shadow.Heap_redzone;
      (* A recycled footprint may overlap a range still in quarantine
         (allocator reuse only recycles *retired* footprints, but keep
         this defensive: the still-quarantined bytes stay freed). *)
      Hashtbl.iter
        (fun _ (qa, qs) ->
          let lo = max addr qa and hi = min (addr + size) (qa + qs) in
          if hi > lo then Shadow.poison t.shadow lo ~len:(hi - lo) Shadow.Heap_freed)
        t.quarantined
    | Jt_vm.Alloc.Ev_free { id; addr; size } ->
      (* Poison exactly [size] bytes: a zero-size block owns no payload
         byte, and the byte at [addr] belongs to its own right redzone. *)
      Shadow.poison t.shadow addr ~len:size Shadow.Heap_freed;
      Hashtbl.replace t.quarantined id (addr, size)
    | Jt_vm.Alloc.Ev_unquarantine { id; addr = _; size = _ } ->
      (* Shadow stays [Heap_freed] until the footprint is legitimately
         recycled ([Ev_alloc] unpoisons it); only the ID bookkeeping
         is dropped. *)
      Hashtbl.remove t.quarantined id
    | Jt_vm.Alloc.Ev_bad_free { addr; kind } ->
      report ~kind:(bad_free_kind kind) ~addr

  let attach t (vm : Jt_vm.Vm.t) =
    t.counters <- Jt_metrics.Metrics.Counters.current ();
    Jt_vm.Alloc.set_redzone vm.alloc redzone_bytes;
    Jt_vm.Alloc.subscribe vm.alloc
      (on_alloc_event t ~report:(fun ~kind ~addr ->
           Jt_vm.Vm.report_violation vm ~kind ~addr))

  let kind_of st is_store =
    match (st, is_store) with
    | Shadow.Heap_redzone, _ -> "heap-buffer-overflow"
    | Shadow.Heap_freed, _ -> "heap-use-after-free"
    | Shadow.Stack_canary, _ -> "stack-buffer-overflow"
    | Shadow.Addressable, _ -> "bad-access"

  let check t vm ~addr ~len ~is_store =
    let c = t.counters in
    c.c_san_checks <- c.c_san_checks + 1;
    match Shadow.first_poisoned t.shadow addr ~len with
    | Some (a, st) -> Jt_vm.Vm.report_violation vm ~kind:(kind_of st is_store) ~addr:a
    | None -> ()

  let poison_canary t (vm : Jt_vm.Vm.t) ~slot_disp =
    let fp = Jt_vm.Vm.get vm Reg.fp in
    Shadow.poison t.shadow (Word.add fp slot_disp) ~len:4 Shadow.Stack_canary

  let unpoison_canary t (vm : Jt_vm.Vm.t) ~slot_disp =
    let fp = Jt_vm.Vm.get vm Reg.fp in
    Shadow.unpoison t.shadow (Word.add fp slot_disp) ~len:4
end

(* ---- static pass ---- *)

let is_frame_access (m : Insn.mem) =
  match (m.base, m.index) with
  | Some (Insn.Breg b), None -> Reg.equal b Reg.sp || Reg.equal b Reg.fp
  | _ -> false

let is_pcrel (m : Insn.mem) =
  match m.base with Some Insn.Bpc -> true | _ -> false

let scale_log2 = function 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> 0

let width_of = function Insn.W1 -> 1 | Insn.W2 -> 2 | Insn.W4 -> 4

(* ---- elision passes ---- *)

type claim =
  | Exempt_canary
  | Pcrel
  | Policy_frame
  | Scev_covered
  | Dom_elided of int  (* witness: dominating checked access *)
  | Checked

let claim_name = function
  | Exempt_canary -> "exempt-canary"
  | Pcrel -> "pcrel"
  | Policy_frame -> "policy-frame"
  | Scev_covered -> "scev"
  | Dom_elided _ -> "dom"
  | Checked -> "checked"

(* Syntactic address keys and the available-checks must-lattice are
   shared with the DBT's trace-spine elision pass (which must agree
   exactly on what "same address" means), so they live in
   [Jt_analysis.Avail]. *)
module Avail = Jt_analysis.Avail

let key_of = Avail.key_of
let key_regs = Avail.key_regs

(* Available-checks must-analysis: the address keys whose byte ranges
   were shadow-checked on *every* path to a point, with no intervening
   redefinition of the key's registers and no shadow-state barrier, each
   with the check that made it available. *)
module Avail_solver = Jt_analysis.Dataflow.Make (Avail.Lattice)

type fn_report = {
  er_fn : int;  (* function entry *)
  er_claims : (int * claim) list;  (* one per load/store, address order *)
}

(* Decide, for every load/store of one function, which pass claims it.
   Claims are disjoint by construction and the priority is fixed:
   canary exemption > pc-relative > frame policy > SCEV coverage >
   dominating check; whatever is left gets a shadow check.  An access
   claimed twice is a bug in the pass ordering and raises. *)
let plan_elision ~hoist_scev ~skip_frame ~exempt_canary ~elide ~cross
    (fa : Janitizer.Static_analyzer.fn_analysis) =
  let exempt =
    if exempt_canary then Jt_analysis.Canary.exempt_addrs fa.fa_canaries
    else Hashtbl.create 1
  in
  let covered =
    if hoist_scev then Jt_analysis.Scev.covered_addrs fa.fa_scev
    else Hashtbl.create 1
  in
  (* Every memory access, in block/instruction order. *)
  let accesses =
    Array.fold_right
      (fun (b : Jt_cfg.Cfg.block) acc ->
        Array.fold_right
          (fun (info : Jt_disasm.Disasm.insn_info) acc ->
            match info.d_insn with
            | Insn.Load (w, _, m) -> (info, width_of w, m) :: acc
            | Insn.Store (w, m, _) -> (info, width_of w, m) :: acc
            | _ -> acc)
          b.b_insns acc)
      fa.fa_fn.Jt_cfg.Cfg.f_blocks []
  in
  let claims : (int, claim) Hashtbl.t = Hashtbl.create 64 in
  let claim addr c =
    (* the overlap regression guard: no two passes may take credit for
       the same access *)
    if Hashtbl.mem claims addr then
      invalid_arg
        (Printf.sprintf "Jasan.plan_elision: access 0x%x claimed twice" addr);
    Hashtbl.replace claims addr c
  in
  (* Pass 1: the cheap claims, in priority order. *)
  List.iter
    (fun ((info : Jt_disasm.Disasm.insn_info), _, m) ->
      let addr = info.d_addr in
      if Hashtbl.mem exempt addr then claim addr Exempt_canary
      else if is_pcrel m then claim addr Pcrel
      else if skip_frame && is_frame_access m then claim addr Policy_frame
      else if Hashtbl.mem covered addr then claim addr Scev_covered)
    accesses;
  (* Pass 2: dominating-check elimination over the availability
     fixpoint.  Gen sites are the accesses that will carry their own
     check (still unclaimed here) — on any path through one, the key's
     byte range is known clean right after it.  An available key's
     single site is the witness; a key checked at different accesses on
     different paths ([Several]) keeps the access checked. *)
  if elide then begin
    let gen_key = Hashtbl.create 64 in
    List.iter
      (fun ((info : Jt_disasm.Disasm.insn_info), width, m) ->
        match key_of m width with
        | Some key when not (Hashtbl.mem claims info.d_addr) ->
          Hashtbl.replace gen_key info.d_addr key
        | _ -> ())
      accesses;
    (* Barriers: canary poisoning rewrites stack shadow state, so no
       earlier check survives it.  (Unpoisoning only widens what is
       addressable and is not a barrier.)  Calls and syscalls barrier in
       the transfer itself: the allocator may poison redzones or freed
       blocks behind them. *)
    let barrier = Hashtbl.create 8 in
    List.iter
      (fun (s : Jt_analysis.Canary.site) ->
        Hashtbl.replace barrier s.c_after_store ())
      fa.fa_canaries;
    let transfer (info : Jt_disasm.Disasm.insn_info) st =
      let st =
        if Hashtbl.mem barrier info.d_addr then Avail.Map.empty else st
      in
      let st =
        match Hashtbl.find_opt gen_key info.d_addr with
        | Some k -> Avail.gen k info.d_addr st
        | None -> st
      in
      match info.d_insn with
      | Insn.Call t -> (
        (* Cross-call relaxation: shadow state only changes behind a
           call via allocator events (syscall-gated) or canary
           poisoning, both covered by the callee's barrier bit; with the
           barrier clear, a claim survives iff the callee provably
           leaves every register of its key alone.  [ip_clobbers]
           always contains [sp] (the callee's ret redefines it), so
           sp-relative keys still die here — the win is fp-based keys
           across calls to leaves that don't touch fp. *)
        match cross t with
        | Some (s : Jt_analysis.Interproc.summary) when not s.ip_barrier ->
          Avail.Map.filter
            (fun key _ ->
              Jt_analysis.Liveness.reg_mask (key_regs key) land s.ip_clobbers
              = 0)
            st
        | _ -> Avail.insn_transfer info.d_insn st)
      | _ ->
        (* calls/syscalls barrier and register-def kills: the shared
           instruction-shape transfer, identical to the trace pass's *)
        Avail.insn_transfer info.d_insn st
    in
    let solver =
      Avail_solver.solve ~entry:Avail.Map.empty ~transfer fa.fa_fn
    in
    List.iter
      (fun ((info : Jt_disasm.Disasm.insn_info), width, m) ->
        let addr = info.d_addr in
        if not (Hashtbl.mem claims addr) then
          match (key_of m width, Avail_solver.before solver addr) with
          | Some key, Some st -> (
            match Avail.witness key st with
            | Some w -> claim addr (Dom_elided w)
            | None -> ())
          | _ -> ())
      accesses
  end;
  {
    er_fn = fa.fa_fn.Jt_cfg.Cfg.f_entry;
    er_claims =
      List.map
        (fun ((info : Jt_disasm.Disasm.insn_info), _, _) ->
          ( info.d_addr,
            Option.value ~default:Checked
              (Hashtbl.find_opt claims info.d_addr) ))
        accesses;
  }

(* Pack the hoisted range-check parameters into rule data words. *)
let pack_range (s : Jt_analysis.Scev.summary) (a : Jt_analysis.Scev.access) =
  let base_reg =
    match a.a_mem.Insn.base with
    | Some (Insn.Breg r) -> Reg.index r
    | _ -> 0
  in
  let bound_is_reg, bound_reg, bound_imm =
    match s.ls_bound with
    | Jt_analysis.Scev.Breg r -> (1, Reg.index r, 0)
    | Jt_analysis.Scev.Bimm v -> (0, 0, v)
  in
  let d1 =
    base_reg
    lor (Reg.index s.ls_ivar lsl 4)
    lor (scale_log2 a.a_mem.Insn.scale lsl 8)
    lor ((if s.ls_bound_incl then 1 else 0) lsl 10)
    lor (bound_is_reg lsl 11)
    lor (bound_reg lsl 12)
    lor (a.a_width lsl 16)
  in
  [ d1; a.a_mem.Insn.disp; bound_imm; s.ls_init land Word.mask ]

let pack_invariant (a : Jt_analysis.Scev.access) =
  let base_reg, has_idx, idx_reg =
    match (a.a_mem.Insn.base, a.a_mem.Insn.index) with
    | Some (Insn.Breg r), Some i -> (Reg.index r, 1, Reg.index i)
    | Some (Insn.Breg r), None -> (Reg.index r, 0, 0)
    | _ -> (0, 0, 0)
  in
  let d1 =
    base_reg
    lor (has_idx lsl 4)
    lor (idx_reg lsl 5)
    lor (scale_log2 a.a_mem.Insn.scale lsl 9)
    lor (a.a_width lsl 16)
  in
  [ d1; a.a_mem.Insn.disp ]

(* Callee-summary lookup for the cross-call relaxation.  Only modules
   with reliable conventions qualify: the relaxation trusts the
   interprocedural summaries, which degrade on convention-breaking
   modules. *)
let cross_lookup ~cross_call ~elide (sa : Janitizer.Static_analyzer.t) =
  if cross_call && elide && sa.sa_reliable_conventions then fun t ->
    Hashtbl.find_opt (Lazy.force sa.sa_summaries) t
  else fun _ -> None

let elision_report ?(hoist_scev = true) ?(skip_frame = true)
    ?(exempt_canary = true) ?(elide = true) ?(cross_call = true)
    (sa : Janitizer.Static_analyzer.t) =
  let cross = cross_lookup ~cross_call ~elide sa in
  List.map (plan_elision ~hoist_scev ~skip_frame ~exempt_canary ~elide ~cross)
    sa.sa_fns

let static_pass ~liveness ~hoist_scev ~skip_frame ~exempt_canary ~elide
    ~cross_call (sa : Janitizer.Static_analyzer.t) =
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  (* Instruction address -> holding block address, for rule bb fields. *)
  let bb_addr insn_addr =
    let cfg = sa.sa_cfg in
    let b = Jt_cfg.Cfg.module_block_of_insn cfg insn_addr in
    if b < 0 then insn_addr else cfg.c_blocks.(b).b_addr
  in
  let n_checks = ref 0 and n_dom = ref 0 in
  let cross = cross_lookup ~cross_call ~elide sa in
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      let report =
        plan_elision ~hoist_scev ~skip_frame ~exempt_canary ~elide ~cross fa
      in
      let fn_entry = fa.fa_fn.Jt_cfg.Cfg.f_entry in
      (* Memory-access checks, minus everything the elision plan proved
         redundant.  SCEV preheader rules below are emitted only for
         accesses the plan actually attributed to SCEV coverage, so an
         access claimed by a stronger pass no longer drags a useless
         hoisted check along. *)
      let scev_claimed = Hashtbl.create 8 in
      List.iter
        (fun (addr, c) ->
          match c with
          | Checked ->
            incr n_checks;
            let dead_scratch, flags_dead =
              match liveness with
              | Live_none -> (0, 0)
              | Live_full ->
                let dead =
                  Jt_analysis.Liveness.dead_regs_before fa.fa_liveness addr
                in
                ( min 2 (List.length dead),
                  if Jt_analysis.Liveness.flags_dead_before fa.fa_liveness addr
                  then 1
                  else 0 )
            in
            emit
              (Jt_rules.Rules.make ~id:Ids.mem_check ~bb:(bb_addr addr)
                 ~insn:addr
                 ~data:[ dead_scratch; flags_dead ]
                 ())
          | Scev_covered -> Hashtbl.replace scev_claimed addr ()
          | Dom_elided w ->
            incr n_dom;
            if Jt_trace.Trace.is_enabled () then
              Jt_trace.Trace.emit
                (Jt_trace.Trace.Check_elide
                   { insn = addr; fn = fn_entry; reason = "dom"; witness = w })
          | Exempt_canary | Pcrel | Policy_frame -> ())
        report.er_claims;
      (* Canary poisoning: after the canary store (Figure 6), and
         unpoisoning before each check load. *)
      List.iter
        (fun (site : Jt_analysis.Canary.site) ->
          let disp = site.c_slot_disp land Word.mask in
          emit
            (Jt_rules.Rules.make ~id:Ids.poison_canary
               ~bb:(bb_addr site.c_after_store) ~insn:site.c_after_store
               ~data:[ disp ] ());
          List.iter
            (fun load_addr ->
              emit
                (Jt_rules.Rules.make ~id:Ids.unpoison_canary ~bb:(bb_addr load_addr)
                   ~insn:load_addr ~data:[ disp ] ()))
            site.c_check_loads)
        fa.fa_canaries;
      (* Hoisted SCEV checks at loop preheaders — only for the accesses
         the elision plan attributed to SCEV coverage. *)
      if hoist_scev then
      List.iter
        (fun (s : Jt_analysis.Scev.summary) ->
          List.iter
            (fun (a : Jt_analysis.Scev.access) ->
              if Hashtbl.mem scev_claimed a.a_addr then
                emit
                  (Jt_rules.Rules.make ~id:Ids.range_check ~bb:s.ls_preheader
                     ~insn:s.ls_check_at ~data:(pack_range s a) ()))
            s.ls_affine;
          List.iter
            (fun (a : Jt_analysis.Scev.access) ->
              if Hashtbl.mem scev_claimed a.a_addr then
                emit
                  (Jt_rules.Rules.make ~id:Ids.invariant_check ~bb:s.ls_preheader
                     ~insn:s.ls_check_at ~data:(pack_invariant a) ()))
            s.ls_invariant)
        fa.fa_scev)
    sa.sa_fns;
  let rules = Janitizer.Tool.noop_marks sa (List.rev !rules) in
  { Jt_rules.Rules.rf_module = sa.sa_mod.Jt_obj.Objfile.name;
    rf_digest = Jt_obj.Objfile.digest sa.sa_mod;
    rf_stats =
      [ ("checks", !n_checks); ("elide_dom", !n_dom) ];
    rf_rules = rules }

(* ---- instrumentation (dynamic modifier side) ---- *)

let mem_operand (i : Insn.t) =
  match i with
  | Insn.Load (w, _, m) -> Some (width_of w, m, false)
  | Insn.Store (w, m, _) -> Some (width_of w, m, true)
  | _ -> None

(* With [elide] on, checks advertise their address key so the DBT's
   trace-spine pass can elide ones dominated within a trace; with it off
   they stay opaque, keeping the trace layer inert for the ablation
   (elide:false is the all-checks baseline of the differential gate).
   Advertising [M_check] also signs up for the kind's purity contract:
   the action below only reads shadow state (and reports), so the trace
   layer may drop it or re-execute it with the key's index register
   rebound — that is how the induction guard turns these per-iteration
   checks into two endpoint checks at streak onset. *)
let check_meta rt ~cost ~len ~is_store ~elide (m : Insn.mem) ~next_pc =
  let ea = Jt_vm.Vm.compile_addr ~next_pc m in
  {
    Jt_dbt.Dbt.m_cost = cost;
    m_action = Some (fun vm -> Rt.check rt vm ~addr:(ea vm) ~len ~is_store);
    m_kind =
      (if not elide then Jt_dbt.Dbt.M_opaque
       else
         match key_of m len with
         | Some k -> Jt_dbt.Dbt.M_check k
         | None -> Jt_dbt.Dbt.M_opaque);
  }

let hybrid_check_cost ~dead_scratch ~flags_dead =
  Jt_vm.Cost.asan_check
  + (Jt_vm.Cost.spill_reg * max 0 (2 - dead_scratch))
  + if flags_dead = 1 then 0 else Jt_vm.Cost.save_restore_flags

let conservative_check_cost =
  Jt_vm.Cost.asan_check + (2 * Jt_vm.Cost.spill_reg) + Jt_vm.Cost.save_restore_flags

let unpack_signed v = Word.to_signed v

let range_meta rt (r : Jt_rules.Rules.t) =
  let d1 = r.data.(0) and disp = r.data.(1) and bound_imm = r.data.(2) in
  let init = unpack_signed r.data.(3) in
  let base = Reg.of_index (d1 land 0xF) in
  let scale = 1 lsl ((d1 lsr 8) land 3) in
  let incl = (d1 lsr 10) land 1 = 1 in
  let bound_is_reg = (d1 lsr 11) land 1 = 1 in
  let bound_reg = Reg.of_index ((d1 lsr 12) land 0xF) in
  let width = (d1 lsr 16) land 7 in
  {
    Jt_dbt.Dbt.m_cost =
      (2 * Jt_vm.Cost.asan_check) + (2 * Jt_vm.Cost.spill_reg)
      + Jt_vm.Cost.save_restore_flags;
    m_action =
      Some
        (fun vm ->
          (* The check runs in the preheader, before the induction
             register is initialized: the initial index comes from the
             rule, not the register file. *)
          let lo_i = init in
          let bound =
            if bound_is_reg then unpack_signed (Jt_vm.Vm.get vm bound_reg)
            else unpack_signed bound_imm
          in
          let hi_i = if incl then bound else bound - 1 in
          if hi_i >= lo_i then begin
            let b = Jt_vm.Vm.get vm base in
            let lo = Word.of_int (b + (lo_i * scale) + unpack_signed disp) in
            let hi = Word.of_int (b + (hi_i * scale) + unpack_signed disp) in
            Rt.check rt vm ~addr:lo ~len:width ~is_store:false;
            Rt.check rt vm ~addr:hi ~len:width ~is_store:false
          end);
    (* shadow-reading only, but the trace pass has no key for a hoisted
       range; opaque-with-action is the conservative barrier *)
    m_kind = Jt_dbt.Dbt.M_opaque;
  }

let invariant_meta rt (r : Jt_rules.Rules.t) =
  let d1 = r.data.(0) and disp = r.data.(1) in
  let base = Reg.of_index (d1 land 0xF) in
  let has_idx = (d1 lsr 4) land 1 = 1 in
  let idx = Reg.of_index ((d1 lsr 5) land 0xF) in
  let scale = 1 lsl ((d1 lsr 9) land 3) in
  let width = (d1 lsr 16) land 7 in
  {
    Jt_dbt.Dbt.m_cost = hybrid_check_cost ~dead_scratch:2 ~flags_dead:1;
    m_action =
      Some
        (fun vm ->
          let b = Jt_vm.Vm.get vm base in
          let i = if has_idx then Jt_vm.Vm.get vm idx * scale else 0 in
          let addr = Word.of_int (b + i + unpack_signed disp) in
          Rt.check rt vm ~addr ~len:width ~is_store:false);
    m_kind = Jt_dbt.Dbt.M_opaque;
  }

(* A poisoning canary store is always a shadow-write barrier for the
   trace pass; a canary unpoison (when [elide]) is tagged [M_unpoison],
   which leaves earlier checks available but keeps the induction guard
   off the spine. *)
let canary_meta rt ~unpoison ~elide disp =
  let slot_disp = unpack_signed disp in
  {
    Jt_dbt.Dbt.m_cost = Jt_vm.Cost.asan_canary_op;
    m_action =
      Some
        (fun vm ->
          if unpoison then Rt.unpoison_canary rt vm ~slot_disp
          else Rt.poison_canary rt vm ~slot_disp);
    m_kind =
      (if not unpoison then Jt_dbt.Dbt.M_shadow_write
       else if elide then Jt_dbt.Dbt.M_unpoison
       else Jt_dbt.Dbt.M_opaque);
  }

(* Interpret one static rule at one instruction into a meta op.  Shared
   between the DBT plan below and the AOT emitter (Jt_emit), which
   anchors the same metas to its materialized instrumentation sites —
   that sharing is what makes the static claim partition (and its
   elisions) carry over to emitted binaries verbatim. *)
let static_meta rt ~elide (r : Jt_rules.Rules.t) ~at ~insn ~len =
  if r.rule_id = Ids.mem_check then
    match mem_operand insn with
    | Some (width, m, is_store) ->
      let cost =
        hybrid_check_cost ~dead_scratch:r.data.(0) ~flags_dead:r.data.(1)
      in
      Some (check_meta rt ~cost ~len:width ~is_store ~elide m ~next_pc:(at + len))
    | None -> None
  else if r.rule_id = Ids.poison_canary then
    Some (canary_meta rt ~unpoison:false ~elide r.data.(0))
  else if r.rule_id = Ids.unpoison_canary then
    Some (canary_meta rt ~unpoison:true ~elide r.data.(0))
  else if r.rule_id = Ids.range_check then Some (range_meta rt r)
  else if r.rule_id = Ids.invariant_check then Some (invariant_meta rt r)
  else None

(* Static-rules path: interpret each rule into a meta op. *)
let plan_static rt ~elide (b : Jt_dbt.Dbt.block) ~rules_at =
  let plan = Jt_dbt.Dbt.no_plan b in
  Array.iteri
    (fun k (at, insn, len) ->
      let metas =
        List.filter_map
          (fun r -> static_meta rt ~elide r ~at ~insn ~len)
          (rules_at at)
      in
      plan.(k) <- metas)
    b.insns;
  plan

(* The canary-slot table of a block without a canary load: never
   written. *)
let no_slots : (int, int) Hashtbl.t = Hashtbl.create 1

(* Dynamic fallback: per-block only — check every load/store with
   conservative save/restore; recognize the canary idiom locally. *)
let plan_dynamic rt ~elide (b : Jt_dbt.Dbt.block) =
  let plan = Jt_dbt.Dbt.no_plan b in
  (* Local canary recognition: a ldcanary in the block makes fp-relative
     4-byte stores of the canary register canary-stores, and fp-relative
     4-byte loads canary-checks. *)
  let canary_reg = ref None in
  let block_has_canary =
    Array.exists
      (fun (_, i, _) -> match i with Insn.Load_canary _ -> true | _ -> false)
      b.insns
  in
  (* most blocks hold no canary load: they share one empty table *)
  let canary_stores = if block_has_canary then Hashtbl.create 2 else no_slots in
  let canary_checks = if block_has_canary then Hashtbl.create 2 else no_slots in
  if block_has_canary then
    Array.iteri
      (fun k (_, i, _) ->
        match i with
        | Insn.Load_canary r -> canary_reg := Some r
        | Insn.Store (Insn.W4, m, Insn.Reg r)
          when (match !canary_reg with
               | Some cr -> Reg.equal cr r
               | None -> false)
               && is_frame_access m
               && (match m.Insn.base with
                  | Some (Insn.Breg br) -> Reg.equal br Reg.fp
                  | _ -> false) ->
          Hashtbl.replace canary_stores k (unpack_signed m.Insn.disp)
        | Insn.Load (Insn.W4, _, m)
          when is_frame_access m
               && (match m.Insn.base with
                  | Some (Insn.Breg br) -> Reg.equal br Reg.fp
                  | _ -> false) ->
          Hashtbl.replace canary_checks k (unpack_signed m.Insn.disp)
        | _ -> ())
      b.insns;
  Array.iteri
    (fun k (at, insn, len) ->
      if Hashtbl.mem canary_stores k then
        let disp = Hashtbl.find canary_stores k in
        plan.(k) <- [ canary_meta rt ~unpoison:false ~elide (disp land Word.mask) ]
      else if Hashtbl.mem canary_checks k then
        let disp = Hashtbl.find canary_checks k in
        plan.(k) <- [ canary_meta rt ~unpoison:true ~elide (disp land Word.mask) ]
      else
        match mem_operand insn with
        | Some (width, m, is_store) when not (is_pcrel m) ->
          plan.(k) <-
            [
              check_meta rt ~cost:conservative_check_cost ~len:width ~is_store
                ~elide m ~next_pc:(at + len);
            ]
        | Some _ | None -> ())
    b.insns;
  plan

(* The emitter stamps its two configurations' tags, "jasan+elide" and
   "jasan", into its maps. *)
let tag ?(liveness = Live_full) ?(hoist_scev = true)
    ?(skip_frame_accesses = true) ?(exempt_canary = true) ?(elide = true)
    ?(cross_call = true) () =
  let off on suffix = if on then "" else suffix in
  String.concat ""
    [ (if elide then "jasan+elide" else "jasan");
      off (liveness = Live_full) "-live-none"; off hoist_scev "-no-scev";
      off skip_frame_accesses "-no-frame-skip";
      off exempt_canary "-no-canary-exempt"; off cross_call "-no-cross-call" ]

let create ?(liveness = Live_full) ?(hoist_scev = true)
    ?(skip_frame_accesses = true) ?(exempt_canary = true)
    ?(clean_calls = false) ?(elide = true) ?(cross_call = true) () =
  let rt = Rt.create () in
  (* The clean-call ablation: every handler pays a full context switch
     instead of the inlined, liveness-aware save/restore of 4.1.1. *)
  let costing plan =
    if not clean_calls then plan
    else
      Array.map
        (List.map (fun m ->
             { m with Jt_dbt.Dbt.m_cost = Jt_vm.Cost.dbt_clean_call + Jt_vm.Cost.asan_check }))
        plan
  in
  let client =
    {
      Jt_dbt.Dbt.cl_on_block =
        (fun _vm b prov ~rules_at ->
          match prov with
          | Jt_dbt.Dbt.Static_rules -> costing (plan_static rt ~elide b ~rules_at)
          | Jt_dbt.Dbt.Dynamic_only -> costing (plan_dynamic rt ~elide b));
    }
  in
  ( {
      Janitizer.Tool.t_setup = (fun vm ~rules_for:_ -> Rt.attach rt vm);
      t_static =
        static_pass ~liveness ~hoist_scev ~skip_frame:skip_frame_accesses
          ~exempt_canary ~elide ~cross_call;
      t_tag =
        tag ~liveness ~hoist_scev ~skip_frame_accesses ~exempt_canary ~elide
          ~cross_call ();
      t_client = client;
    },
    rt )
