open Jt_isa

type block = { bb_addr : int; insns : (int * Insn.t * int) array }

(* What a piece of instrumentation does to shadow state, as far as the
   trace-spine elision pass is concerned.  [M_check] carries the
   syntactic address key of the access it guards; [M_unpoison] only
   widens what is addressable, so it is transparent to check
   availability, but it does change shadow state (which disqualifies
   the induction guard); [M_shadow_write] marks a poisoning write (a
   barrier: no earlier check survives it); [M_opaque] is anything the
   pass cannot reason about — an opaque meta with an action is treated
   as a conservative barrier, one without an action (pure cost) is
   transparent.

   Contract for [M_check]: the meta's action must be a pure, read-only
   shadow check of the keyed address range (reporting aside, no state
   changes).  The trace pass relies on this in both directions — it
   drops such actions when a dominating check witnesses them, and the
   induction-range guard *re-executes* them with the key's index
   register temporarily rebound to an endpoint trip value, turning the
   per-iteration check into two endpoint checks at streak onset. *)
type meta_kind =
  | M_opaque
  | M_check of Jt_analysis.Avail.Key.t
  | M_unpoison
  | M_shadow_write

type meta = {
  m_cost : int;
  m_action : (Jt_vm.Vm.t -> unit) option;
  m_kind : meta_kind;
}

type plan = meta list array

let no_plan b = Array.make (Array.length b.insns) []

type provenance = Static_rules | Dynamic_only

type client = {
  cl_on_block :
    Jt_vm.Vm.t -> block -> provenance -> rules_at:(int -> Jt_rules.Rules.t list) -> plan;
}

type profile = {
  p_translate_block : int;
  p_translate_insn : int;
  p_indirect : int;
  p_ibl_hit : int;
  p_per_block : int;
}

let dynamorio =
  {
    p_translate_block = Jt_vm.Cost.dbt_translate_block;
    p_translate_insn = Jt_vm.Cost.dbt_translate_insn;
    p_indirect = Jt_vm.Cost.dbt_indirect_lookup;
    p_ibl_hit = Jt_vm.Cost.dbt_ibl_hit;
    p_per_block = 0;
  }

(* Lockdown's libdetox keeps its own constants: an IBL hit there costs
   the same as its ordinary indirect check, so enabling the IBL would
   change nothing even if the baseline didn't opt out. *)
let lightweight =
  {
    p_translate_block = 30;
    p_translate_insn = 6;
    p_indirect = Jt_vm.Cost.lockdown_indirect;
    p_ibl_hit = Jt_vm.Cost.lockdown_indirect;
    p_per_block = Jt_vm.Cost.lockdown_per_block;
  }

type stats = {
  mutable st_blocks_static : int;
  mutable st_blocks_dynamic : int;
  mutable st_block_execs : int;
  mutable st_chain_hits : int;
  mutable st_dispatch_entries : int;
  mutable st_ibl_hits : int;
  mutable st_ibl_misses : int;
  mutable st_traces_built : int;
  mutable st_trace_execs : int;
  mutable st_trace_interior : int;
  mutable st_decode_faults : int;
}

(* The trace-level induction guard (dynamic SCEV).  When a trace is the
   body of a counted loop — head pattern [cmp ivar, bound; jcc {>=,>}],
   a single unit-increment definition of [ivar], a bound that is
   spine-invariant — every check whose key is affine in [ivar] over a
   spine-invariant base can be hoisted out of the steady-state plans and
   replaced by one pair of endpoint checks run at streak onset, when the
   remaining trip range [i0, last] is known from the live register file.
   This is the static SCEV range check's runtime twin: the static pass
   refuses register-held bounds (it cannot prove them stable to the
   preheader), but along a streak the bound register is *observed*
   stable — it is never written on the spine and nothing else runs.
   [ig_checks] pairs each hoisted check meta with the number of [ivar]
   increments that precede it on the spine (its index offset). *)
type ind_bound = Ib_imm of int | Ib_reg of Reg.t

type ind_guard = {
  ig_ivar : Reg.t;
  ig_bound : ind_bound;
  ig_incl : bool;  (* exit on [>]: the last executed trip value is bound *)
  ig_checks : (meta * int) list;
}

(* Per-trace elision overlay, computed once at trace-build time by the
   spine availability analysis.  [ov_plans] replaces the constituents'
   own plans on a cold entry of the trace; [ov_plans_streak] is the
   steady-state variant used when the trace re-enters its own head
   immediately after a completed execution (so checks made available by
   the previous trip — loop-invariant ones — are elided too).  The
   constituents' [cb_plan]s are never modified: a side exit, teardown or
   ordinary block execution structurally restores every check.  The
   [ov_*] count arrays record, per constituent position, how many checks
   each plan variant dropped, for the runtime counters. *)
type overlay = {
  ov_plans : plan array;
  ov_plans_streak : plan array;
  ov_runs : Jt_vm.Vm.op array;  (* [ov_plans] fused, one per constituent *)
  ov_runs_streak : Jt_vm.Vm.op array;
  ov_ind : ind_guard option;
      (* endpoint guard justifying the streak plans' "trace-ind" drops;
         executed once when a streak begins *)
  ov_dom : int array;  (* base-plan drops: dominated within the trace *)
  ov_s_dom : int array;  (* streak-plan drops with a same-trip witness *)
  ov_s_streak : int array;  (* streak-only drops (previous-trip witness) *)
  ov_s_ind : int array;  (* streak-only drops hoisted to the onset guard *)
  ov_decisions : (int * string * int) list;
      (* (insn addr, reason, witness addr), for tracing and --facts *)
}

(* A code-cache entry.  Blocks ending in a direct transfer record their
   static successor address(es); once a successor is itself translated,
   the dispatcher installs a chain link so the next execution follows the
   pointer instead of re-probing the block table.  [cb_valid] is the chain
   severing mechanism: invalidation flips it and every link into a dead
   block is dropped lazily the first time it is followed.

   The payload — [cb], [cb_ops] and [cb_plan] — is what a block needs to
   run; everything else is its identity and its links.  A block keeps
   its payload for good from its second execution on.  After the first,
   it keeps it while among the young blocks ([make_young]); a block
   pushed out of them before its second execution drops it, and [fused]
   rebuilds it at the second, silently.  A block first run while a
   trace is recorded keeps it.  Most blocks of a cold run execute once,
   so their payloads die young. *)
type cached = {
  cb_addr : int;  (* start address *)
  cb_n : int;  (* instructions; 0 for a block that decode-faults *)
  mutable cb : block;  (* [no_payload] while dropped *)
  mutable cb_ops : Jt_vm.Vm.op array;  (* one compiled op per [cb.insns] slot *)
  mutable cb_plan : plan;
  mutable cb_run : Jt_vm.Vm.op;
      (* [cb_ops] and [cb_plan] fused by [fuse], or [unfused] before the
         block's second execution: see [fused] *)
  mutable cb_warm : bool;  (* executed at least once *)
  cb_indirect_end : bool;
  cb_end : int;  (* exclusive end of the byte span; bb_addr+1 if empty *)
  cb_succ_taken : int;  (* direct Jmp/Jcc/Call target, -1 if none *)
  cb_succ_fall : int;  (* fallthrough address, -1 if none *)
  mutable cb_link_taken : cached option;
  mutable cb_link_fall : cached option;
  mutable cb_valid : bool;
  (* Per-site indirect-branch inline cache: for a block ending in an
     indirect transfer, the last resolved target plus a small
     associative table of recent targets, probed before the dispatcher
     (empty for any other block).  Entries are severed lazily through
     [cb_valid], like chain links. *)
  mutable cb_ibl_last : cached option;
  cb_ibl : cached option array;
  mutable cb_ibl_rr : int;  (* round-robin victim when all ways are live *)
  mutable cb_hot : int;  (* dispatcher-level entries, for trace heads *)
  cb_origin : Jt_trace.Trace.origin;  (* static rules vs dynamic discovery *)
  (* Back-pointers to every live trace this block is a constituent of,
     so invalidation tears dependent traces down eagerly (and the live
     count stays O(1) to read). *)
  mutable cb_traces : trace list;
  (* The live trace headed at this block, or [no_trace]: set when the
     trace is built, cleared when it is dropped, so a block entry finds
     its trace without a table lookup. *)
  mutable cb_head_trace : trace;
}

(* A NET-style superblock trace: the tail of blocks that actually
   executed after a hot head, stitched so the common path re-enters the
   dispatcher once per trip instead of once per block.  Constituents are
   ordinary code-cache entries, so range invalidation of the block
   table reaches them without knowing about traces: a trace is
   alive only while every constituent still is: invalidating any
   constituent eagerly drops the trace through the block's [cb_traces]
   back-pointers, and execution still re-checks each constituent before
   entering it (a flush mid-trace side-exits). *)
and trace = {
  tr_head : int;
  tr_blocks : cached array;
  mutable tr_valid : bool;
  tr_overlay : overlay option;  (* trace-level elision plans, if any *)
}

type t = {
  vm : Jt_vm.Vm.t;
  profile : profile;
  client : client option;
  chain : bool;
  ibl : bool;
  trace : bool;
  trace_elide : bool;
  blocks : cached Jt_vm.Addr_table.t;
      (* the code cache: every valid block by start address; a range
         flush drops the blocks whose byte span overlaps it *)
  (* Per-module rule indexes (Figure 5) with the module's PIC shift
     (run-time minus link address, 0 for position-dependent code), one
     per mapped module with rules, found by address through the
     loader. *)
  tables : (Jt_rules.Rules.index * int) Jt_loader.Loader.table;
  mutable n_traces_live : int;
      (* incremental live-trace count; [traces_live_scan] is the full
         recount it must always agree with (asserted after every run) *)
  mutable recording : (int * cached list) option;
      (* trace being recorded: head address, constituents in reverse *)
  mutable trace_completed : bool;
      (* whether the last [exec_trace] ran its trace head to tail *)
  mutable tracing : bool;
  young : cached array;
      (* the last [young_blocks] blocks to end their first execution, a
         ring whose next slot is [young_next]; [no_block] when empty *)
  mutable young_next : int;
  mutable cur_addr : int;
  mutable cur_end : int;
      (* the span of the block [run] entered last, [no_block]'s outside
         [run]: while the block executes, a write into its bytes from
         the PC on cuts it, whether or not an earlier write already
         dropped it.  Between blocks only a phase change writes, with
         the PC at the sentinel, which no block spans.  Two ints, so an
         entry pays no write barrier. *)
  mutable counters : Jt_metrics.Metrics.Counters.t;
      (* the calling domain's tracing state and counters record, sampled
         once when [run] starts so no block or trace entry pays a
         [Domain.DLS] lookup *)
  stats : stats;
}

(* Sentinels that stand for "no block" and "no trace" on the dispatch
   path, so it carries no options.  [no_block] is invalid, empty, has no
   successors and no indirect end, so every chain, IBL and trace test
   fails on it without a special case, and nothing ever writes to it;
   [no_trace] is dead. *)
let no_trace =
  { tr_head = -1; tr_blocks = [||]; tr_valid = false; tr_overlay = None }

(* The [cb] of a block whose payload is dropped. *)
let no_payload = { bb_addr = -1; insns = [||] }

let no_block =
  {
    cb_addr = -1;
    cb_n = 0;
    cb = no_payload;
    cb_ops = [||];
    cb_plan = [||];
    cb_run = ignore;
    cb_warm = false;
    cb_indirect_end = false;
    cb_end = 0;
    cb_succ_taken = -1;
    cb_succ_fall = -1;
    cb_link_taken = None;
    cb_link_fall = None;
    cb_valid = false;
    cb_ibl_last = None;
    cb_ibl = [||];
    cb_ibl_rr = 0;
    cb_hot = 0;
    cb_origin = Jt_trace.Trace.Dynamic;
    cb_traces = [];
    cb_head_trace = no_trace;
  }

(* The block table's "no entry" is [no_block]; a block spans its
   bytes, an empty one its first address. *)
let block_kind =
  Jt_vm.Addr_table.kind ~none:no_block ~span:(fun c -> c.cb_end - c.cb_addr)

let max_block_insns = 256

(* Trace-formation constants (NET: "next-executing tail").  A head is a
   block entered [hot_threshold] times through the dispatcher-level
   paths; the trace then records up to [max_trace_len] blocks of the
   execution that follows. *)
let hot_threshold = 32

let max_trace_len = 16

let ibl_ways = 4

let young_blocks = 64

(* Tear a trace down: mark it dead, keep the live count in step, unhook
   it from its constituents' back-pointer lists and from its head block.
   Idempotent — the eager path (invalidate) and the lazy path (a side
   exit noticing a dead constituent) may both reach the same trace. *)
let drop_trace t tr =
  if tr.tr_valid then begin
    tr.tr_valid <- false;
    t.n_traces_live <- t.n_traces_live - 1;
    Array.iter
      (fun (c : cached) ->
        c.cb_traces <- List.filter (fun o -> o != tr) c.cb_traces)
      tr.tr_blocks;
    if Jt_trace.Trace.is_enabled () then
      Jt_trace.Trace.emit (Jt_trace.Trace.Trace_teardown { head = tr.tr_head });
    let head = tr.tr_blocks.(0) in
    if head.cb_head_trace == tr then head.cb_head_trace <- no_trace
  end

let invalidate t (c : cached) =
  c.cb_valid <- false;
  (* any trace built over this block dies with it — eagerly, so that a
     severed trace can never be entered with its elision overlay active
     and so the live count stays exact *)
  (let trs = c.cb_traces in
   c.cb_traces <- [];
   List.iter (fun tr -> drop_trace t tr) trs);
  if Jt_trace.Trace.is_enabled () then begin
    let sever = function
      | Some (o : cached) ->
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Chain_sever
             { from_pc = c.cb_addr; to_pc = o.cb_addr })
      | None -> ()
    in
    sever c.cb_link_taken;
    sever c.cb_link_fall
  end;
  c.cb_link_taken <- None;
  c.cb_link_fall <- None;
  (* Inline-cache entries into the dead block are severed lazily by the
     probe's [cb_valid] check; the dead block's own site cache is cleared
     eagerly so it stops pinning other blocks. *)
  c.cb_ibl_last <- None;
  Array.fill c.cb_ibl 0 (Array.length c.cb_ibl) None

(* Note [c] as the block executing. *)
let[@inline] enter t (c : cached) =
  t.cur_addr <- c.cb_addr;
  t.cur_end <- c.cb_end

(* Raised out of a running block whose instructions not yet executed
   were just overwritten or flushed: [run] resumes at the PC. *)
exception Cut

(* Drop every cached block whose byte span overlaps the flushed range
   (wrapping past the top of the address space); an empty
   (decode-faulting) block spans its one address.  If the range reaches
   the running block's bytes from the PC on, the rest of that block must
   not run, and the flush cuts it.  The test reads the running block's
   span, not the table: an earlier write behind the PC may have dropped
   the block already. *)
let flush_blocks t start len =
  Jt_vm.Addr_table.flush t.blocks start len (fun _ c -> invalidate t c);
  let pc = t.vm.Jt_vm.Vm.pc in
  if
    t.cur_addr < pc && pc < t.cur_end
    && ((pc - start) land Word.mask < len
       || (start - pc) land Word.mask < t.cur_end - pc)
  then raise Cut

let create ~vm ?(profile = dynamorio) ?client ?(chain = true) ?(ibl = true)
    ?(trace = true) ?(trace_elide = true) ?(rules_for = fun _ -> None) () =
  let t =
    {
      vm;
      profile;
      client;
      chain;
      ibl;
      trace;
      trace_elide;
      (* one 256-word array until a block is translated *)
      blocks = Jt_vm.Addr_table.create block_kind;
      tables = Jt_loader.Loader.table ();
      n_traces_live = 0;
      recording = None;
      trace_completed = false;
      tracing = Jt_trace.Trace.is_enabled ();
      young = Array.make young_blocks no_block;
      young_next = 0;
      cur_addr = no_block.cb_addr;
      cur_end = no_block.cb_end;
      counters = Jt_metrics.Metrics.Counters.current ();
      stats =
        {
          st_blocks_static = 0;
          st_blocks_dynamic = 0;
          st_block_execs = 0;
          st_chain_hits = 0;
          st_dispatch_entries = 0;
          st_ibl_hits = 0;
          st_ibl_misses = 0;
          st_traces_built = 0;
          st_trace_execs = 0;
          st_trace_interior = 0;
          st_decode_faults = 0;
        };
    }
  in
  (* (1) in Figure 4: when a module is loaded, bind its rule file's
     index (built once per file, in link coordinates) and the load base
     a PIC module's addresses are shifted by. *)
  Jt_loader.Loader.track vm.Jt_vm.Vm.loader t.tables (fun l ->
      Option.map
        (fun file ->
          ( Jt_rules.Rules.index file,
            if Jt_obj.Objfile.is_pic l.Jt_loader.Loader.lmod then
              l.Jt_loader.Loader.base
            else 0 ))
        (rules_for l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name));
  (* Cache-flush syscalls (JIT regeneration) invalidate affected blocks. *)
  Jt_vm.Vm.on_cache_flush vm (fun start len -> flush_blocks t start len);
  t

let is_indirect_end (b : block) =
  if Array.length b.insns = 0 then false
  else
    let _, i, _ = b.insns.(Array.length b.insns - 1) in
    match Insn.cti_kind i with
    | Some (Insn.Cti_jmp_ind | Insn.Cti_call_ind | Insn.Cti_ret) -> true
    | Some (Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_call _ | Insn.Cti_halt | Insn.Cti_syscall)
    | None ->
      false

(* Build the dynamic basic block starting at [addr]: decode until a
   control-transfer instruction, undecodable bytes or [limit]
   instructions (step (2) in Figure 4).  Returns the block and the
   compiled op of each of its instructions. *)
let build_block ?(limit = max_block_insns) t addr =
  let decoded = ref [] in
  let n = ref 0 in
  let pc = ref addr in
  let stop = ref false in
  while not !stop do
    match Jt_vm.Vm.decode t.vm !pc with
    | None -> stop := true
    | Some d ->
      decoded := d :: !decoded;
      incr n;
      pc := !pc + d.d_len;
      if Insn.ends_block d.d_insn || !n >= limit then stop := true
  done;
  (* [!decoded] is newest first and [!pc] the block's end *)
  let insns = Array.make !n (addr, Insn.Nop, 0) and ops = Array.make !n ignore in
  List.iteri
    (fun j (d : Jt_vm.Vm.decoded) ->
      let k = !n - 1 - j in
      pc := !pc - d.d_len;
      insns.(k) <- (!pc, d.d_insn, d.d_len);
      ops.(k) <- d.d_op)
    !decoded;
  ({ bb_addr = addr; insns }, ops)

(* Static successors of a block, for chaining: a block ending in a direct
   Jmp/Call has one known successor, a Jcc has two (target and
   fallthrough), and a block cut by the size limit (or by a non-CTI such
   as a syscall) falls through.  Indirect transfers, returns and halts
   have none. *)
let successors (b : block) =
  if Array.length b.insns = 0 then (-1, -1)
  else
    let la, i, ll = b.insns.(Array.length b.insns - 1) in
    match Insn.cti_kind i with
    | Some (Insn.Cti_jmp tgt) -> (tgt, -1)
    | Some (Insn.Cti_jcc (_, tgt)) -> (tgt, la + ll)
    | Some (Insn.Cti_call tgt) -> (tgt, -1)
    | Some (Insn.Cti_jmp_ind | Insn.Cti_call_ind | Insn.Cti_ret | Insn.Cti_halt)
      ->
      (-1, -1)
    | Some Insn.Cti_syscall | None -> (-1, la + ll)

(* ---- fused blocks ---- *)

(* One plan slot's metas, in order: a top-level recursion rather than a
   [List.iter] closure built per instruction.  A fused block calls it
   only for a slot with two or more metas; the per-instruction loop
   calls it for every slot. *)
let rec run_metas vm = function
  | [] -> ()
  | m :: rest ->
    Jt_vm.Vm.charge vm m.m_cost;
    (match m.m_action with Some f -> f vm | None -> ());
    run_metas vm rest

(* One instruction's op with the metas anchored before it.  A meta with
   no action and no cost vanishes; a lone meta becomes one wrapper. *)
let fuse_slot metas (op : Jt_vm.Vm.op) : Jt_vm.Vm.op =
  match
    List.filter (fun m -> m.m_cost <> 0 || Option.is_some m.m_action) metas
  with
  | [] -> op
  | [ { m_cost; m_action = None; _ } ] ->
    fun vm ->
      Jt_vm.Vm.charge vm m_cost;
      op vm
  | [ { m_cost; m_action = Some f; _ } ] ->
    fun vm ->
      Jt_vm.Vm.charge vm m_cost;
      f vm;
      op vm
  | ms ->
    fun vm ->
      run_metas vm ms;
      op vm

(* The [cb_run] of a block not yet fused; never called. *)
let unfused : Jt_vm.Vm.op = fun _ -> ()

(* Straight-line composition, four units to a closure. *)
let rec seq : Jt_vm.Vm.op list -> Jt_vm.Vm.op = function
  | [] -> ignore
  | [ a ] -> a
  | [ a; b ] ->
    fun vm ->
      a vm;
      b vm
  | [ a; b; c ] ->
    fun vm ->
      a vm;
      b vm;
      c vm
  | [ a; b; c; d ] ->
    fun vm ->
      a vm;
      b vm;
      c vm;
      d vm
  | a :: b :: c :: d :: rest ->
    let r = seq rest in
    fun vm ->
      a vm;
      b vm;
      c vm;
      d vm;
      r vm

(* A block's ops under [plan] fused into one closure.  Metas never write
   [vm.status], and every instruction that can, except [Syscall], ends
   its block; so the status is tested only after a mid-block syscall,
   which may have exited or faulted.  The caller must have the fuel for
   every instruction of the block. *)
let fuse (c : cached) (plan : plan) : Jt_vm.Vm.op =
  let ops = c.cb_ops in
  let n = Array.length ops in
  let close seg after =
    match after with
    | None -> seq seg
    | Some rest ->
      let seg = seq seg in
      fun vm ->
        seg vm;
        if Jt_vm.Vm.is_running vm then rest vm
  in
  (* Walk backwards: [seg] collects the units of the current segment,
     [after] is what runs once a segment's closing syscall leaves the
     machine running. *)
  let rec go k seg after =
    if k < 0 then close seg after
    else
      let u = fuse_slot plan.(k) ops.(k) in
      match c.cb.insns.(k) with
      | _, Insn.Syscall _, _ when k < n - 1 ->
        go (k - 1) [ u ] (Some (close seg after))
      | _ -> go (k - 1) (u :: seg) after
  in
  go (n - 1) [] None

(* The client's instrumentation plan for [b], given whether the rule
   table of [b]'s module saw the block ((3a)/(3b) in Figure 4). *)
let plan_of t (b : block) ~static_hit =
  match t.client with
  | None -> no_plan b
  | Some cl ->
    let rules_at =
      match
        if static_hit then Jt_loader.Loader.find t.tables b.bb_addr else None
      with
      | Some (ix, base) ->
        fun a ->
          Jt_rules.Rules.shift ~base (Jt_rules.Rules.Index.at_insn ix (a - base))
      | None -> fun _ -> []
    in
    cl.cl_on_block t.vm b
      (if static_hit then Static_rules else Dynamic_only)
      ~rules_at

(* Translate: classify the block against the rule tables and let the
   client build its instrumentation plan. *)
let translate t addr =
  let b, ops = build_block t addr in
  let translate_cycles =
    t.profile.p_translate_block
    + (t.profile.p_translate_insn * Array.length b.insns)
  in
  t.vm.Jt_vm.Vm.cycles <- t.vm.Jt_vm.Vm.cycles + translate_cycles;
  if t.tracing then
    Jt_trace.Trace.phase_add_cycles Jt_trace.Trace.Rewrite translate_cycles;
  let static_hit =
    match Jt_loader.Loader.find t.tables addr with
    | Some (ix, base) -> Jt_rules.Rules.Index.bb_seen ix (addr - base)
    | None -> false
  in
  if static_hit then t.stats.st_blocks_static <- t.stats.st_blocks_static + 1
  else t.stats.st_blocks_dynamic <- t.stats.st_blocks_dynamic + 1;
  let plan = plan_of t b ~static_hit in
  let cb_end =
    if Array.length b.insns = 0 then addr + 1
    else
      let la, _, ll = b.insns.(Array.length b.insns - 1) in
      la + ll
  in
  let succ_taken, succ_fall = successors b in
  let indirect_end = is_indirect_end b in
  let cached =
    {
      cb_addr = addr;
      cb_n = Array.length b.insns;
      cb = b;
      cb_ops = ops;
      cb_plan = plan;
      cb_run = unfused;
      cb_warm = false;
      cb_indirect_end = indirect_end;
      cb_end;
      cb_succ_taken = succ_taken;
      cb_succ_fall = succ_fall;
      cb_link_taken = None;
      cb_link_fall = None;
      cb_valid = true;
      cb_ibl_last = None;
      cb_ibl = (if indirect_end then Array.make ibl_ways None else [||]);
      cb_ibl_rr = 0;
      cb_hot = 0;
      cb_origin =
        (if static_hit then Jt_trace.Trace.Static else Jt_trace.Trace.Dynamic);
      cb_traces = [];
      cb_head_trace = no_trace;
    }
  in
  if t.tracing then
    Jt_trace.Trace.emit
      (Jt_trace.Trace.Block_translate
         { pc = addr; insns = Array.length b.insns; origin = cached.cb_origin });
  Jt_vm.Addr_table.set t.blocks addr cached;
  cached

(* ---- per-site indirect-branch inline caches ---- *)

(* A hit returns the option already stored in the cache, so a probe
   allocates nothing. *)
let ibl_probe (p : cached) pc =
  match p.cb_ibl_last with
  | Some c as hit when c.cb_valid && c.cb_addr = pc -> hit
  | _ ->
    let n = Array.length p.cb_ibl in
    let rec scan i =
      if i >= n then None
      else
        match p.cb_ibl.(i) with
        | Some c as hit when c.cb_valid && c.cb_addr = pc ->
          p.cb_ibl_last <- hit;
          hit
        | Some _ | None -> scan (i + 1)
    in
    scan 0

let ibl_install (p : cached) (c : cached) =
  p.cb_ibl_last <- Some c;
  let n = Array.length p.cb_ibl in
  (* reuse a dead or duplicate way if one exists, else evict round-robin *)
  let rec free i =
    if i >= n then None
    else
      match p.cb_ibl.(i) with
      | Some o when o.cb_valid && o != c -> free (i + 1)
      | Some _ | None -> Some i
  in
  let slot =
    match free 0 with
    | Some i -> i
    | None ->
      let v = p.cb_ibl_rr in
      p.cb_ibl_rr <- (v + 1) mod n;
      v
  in
  p.cb_ibl.(slot) <- Some c

(* ---- block / trace execution ---- *)

(* Run one translated block under [plan], whose fused form is [run].
   When the budget covers the whole block, [run] executes it with no
   per-instruction fuel or status test.  Otherwise (or while [run] is
   still [unfused]) the per-instruction loop tests the budget before
   every instruction, so Out_of_fuel fires at exactly the budget even
   inside a maximal 256-instruction block or a long chain. *)
let exec_insns t ~budget ~(plan : plan) ~run (c : cached) =
  let vm = t.vm in
  let n = Array.length c.cb_ops in
  if budget - vm.Jt_vm.Vm.icount >= n && run != unfused then run vm
  else begin
    let k = ref 0 in
    while !k < n && Jt_vm.Vm.is_running vm do
      if vm.Jt_vm.Vm.icount >= budget then
        vm.Jt_vm.Vm.status <- Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
      else begin
        run_metas vm plan.(!k);
        c.cb_ops.(!k) vm;
        incr k
      end
    done
  end

let[@inline] has_payload (c : cached) = Array.length c.cb_ops = c.cb_n

(* Rebuild a block's dropped payload: decode its bytes again and ask the
   client for its plan again.  Silent: no cycles, no stats, no events.
   A store into a live block's bytes drops the block, so its [cb_n]
   instructions decode as they did (bytes past them, where a decode may
   have failed, are not marked and may have changed), and the client's
   plan, a function of the block, its provenance and its rules, is the
   one it made then. *)
let rebuild t (c : cached) =
  let b, ops = build_block ~limit:c.cb_n t c.cb_addr in
  assert (Array.length ops = c.cb_n);
  c.cb <- b;
  c.cb_ops <- ops;
  c.cb_plan <-
    plan_of t b ~static_hit:(c.cb_origin = Jt_trace.Trace.Static)

(* After a block's first execution, put it among the young blocks,
   pushing out the oldest: if that one is still unfused, it has run once
   only, and it drops its payload.  Most second executions follow their
   first within a few dozen new blocks (a loop's second trip), so a
   ring of [young_blocks] saves their rebuild and keeps few payloads of
   code that runs once alive.  A block first run inside a recording
   stays out of the ring and keeps its payload: it may become a trace
   constituent, which an overlay runs without [fused].  Every other
   constituent ran again when recorded, through [fused]. *)
let make_young t (c : cached) =
  match t.recording with
  | Some (_, acc) when List.memq c acc -> ()
  | Some _ | None ->
    let i = t.young_next in
    let o = t.young.(i) in
    if o.cb_run == unfused then begin
      o.cb <- no_payload;
      o.cb_ops <- [||];
      o.cb_plan <- [||]
    end;
    t.young.(i) <- c;
    t.young_next <- (i + 1) land (young_blocks - 1)

(* A block's fused closure, built at its second execution (rebuilding
   its payload first) so that code which runs once never allocates one;
   [unfused] before that. *)
let[@inline] fused t (c : cached) =
  let run = c.cb_run in
  if run != unfused then run
  else if c.cb_warm then begin
    if not (has_payload c) then rebuild t c;
    let run = fuse c c.cb_plan in
    c.cb_run <- run;
    run
  end
  else begin
    c.cb_warm <- true;
    unfused
  end

(* With the IBL on, the cost of an ending indirect transfer depends on
   the probe outcome and is charged by the dispatch loop (or by the
   trace executor for in-trace transitions); with it off the flat
   [p_indirect] charge lands here, as before. *)
let[@inline] exec_block t ~budget (c : cached) =
  let vm = t.vm in
  t.stats.st_block_execs <- t.stats.st_block_execs + 1;
  if t.tracing then begin
    Jt_trace.Trace.set_exec_origin c.cb_origin;
    Jt_trace.Trace.emit (Jt_trace.Trace.Block_exec { pc = c.cb_addr })
  end;
  if t.profile.p_per_block > 0 then Jt_vm.Vm.charge vm t.profile.p_per_block;
  let run = fused t c in
  enter t c;
  exec_insns t ~budget ~plan:c.cb_plan ~run c;
  if run == unfused then make_young t c;
  if c.cb_indirect_end && Jt_vm.Vm.is_running vm && not t.ibl then
    Jt_vm.Vm.charge vm t.profile.p_indirect

(* Eager teardown maintains the invariant "[tr_valid] implies every
   constituent is valid", so liveness is a field read on the dispatch
   hot path instead of an O(len) scan. *)
let trace_alive tr = tr.tr_valid

let traces_live t = t.n_traces_live

(* The pre-invariant recount — O(traces · len) — kept as the debug
   oracle the incremental count is asserted against after every run.
   Every live trace hangs off its head block, and a valid block is in the
   code cache, so walking the cache's head fields finds them all. *)
let traces_live_scan t =
  Jt_vm.Addr_table.fold
    (fun _ (c : cached) n ->
      let tr = c.cb_head_trace in
      if tr.tr_valid && Array.for_all (fun c -> c.cb_valid) tr.tr_blocks then
        n + 1
      else n)
    t.blocks 0

(* Run the endpoint checks that justify a trace's "trace-ind" drops.
   The remaining trip range is read off the live register file: [i0] is
   the induction register's current value (control is at the loop head),
   [last] comes from the bound operand.  Each hoisted check's own action
   is re-executed with the induction register rebound to the endpoint
   trip values — legal by the [M_check] purity contract — so the guard
   checks exactly the first and last addresses the elided per-iteration
   checks would have touched.  Interior trips are covered by the same
   heap-object contiguity argument as the static SCEV range check: with
   redzones only at object boundaries, a poisoned byte between two clean
   endpoints of a unit-stride walk cannot exist.  The guard charges each
   check's inline cost twice; the per-iteration copies it replaces
   charge nothing while elided. *)
let run_ind_guard vm (ig : ind_guard) =
  let i0 = Word.to_signed (Jt_vm.Vm.get vm ig.ig_ivar) in
  let bound =
    match ig.ig_bound with
    | Ib_imm v -> v
    | Ib_reg r -> Word.to_signed (Jt_vm.Vm.get vm r)
  in
  let last = if ig.ig_incl then bound else bound - 1 in
  if last >= i0 then begin
    let saved = Jt_vm.Vm.get vm ig.ig_ivar in
    List.iter
      (fun ((m : meta), off) ->
        match m.m_action with
        | None -> ()
        | Some act ->
          Jt_vm.Vm.set vm ig.ig_ivar (Word.of_int (i0 + off));
          act vm;
          Jt_vm.Vm.set vm ig.ig_ivar (Word.of_int (last + off));
          act vm;
          Jt_vm.Vm.charge vm (2 * m.m_cost))
      ig.ig_checks;
    Jt_vm.Vm.set vm ig.ig_ivar saved
  end

(* Execute a superblock trace.  Constituents run back to back with their
   instrumentation plans; after each one, control stays inside the trace
   only if the machine's next PC really is the next constituent's head
   (so a Jcc going the other way, an indirect transfer to a new target,
   or a constituent invalidated by a flush mid-trace all side-exit to
   the dispatcher, which re-resolves from scratch).  An in-trace
   indirect transition pays only the inlined-comparison price
   [p_ibl_hit]; the final block's exit is resolved by the dispatcher
   exactly like a plain block's.  [streak] selects the steady-state
   elision plans — legal only when this very trace completed head to
   tail on the immediately preceding dispatch, so the availability
   carried across the back-edge is real.  [streak_onset] marks the first
   streak-mode execution of a consecutive run: that is when the
   induction guard (if any) pays for the hoisted per-iteration checks
   with its one pair of endpoint checks.  Returns the last constituent
   that executed (for the dispatcher's chain/IBL bookkeeping) and
   records in [t.trace_completed] whether the trace ran to completion
   (to arm the next streak). *)
let exec_trace t ~budget ~streak ~streak_onset (tr : trace) =
  let vm = t.vm in
  let s = t.stats in
  s.st_trace_execs <- s.st_trace_execs + 1;
  let m = t.counters in
  (if streak && streak_onset then
     match tr.tr_overlay with
     | Some { ov_ind = Some ig; _ } -> run_ind_guard vm ig
     | Some _ | None -> ());
  if t.profile.p_per_block > 0 then Jt_vm.Vm.charge vm t.profile.p_per_block;
  let n = Array.length tr.tr_blocks in
  let i = ref 0 in
  let last = ref tr.tr_blocks.(0) in
  let continue_ = ref true in
  while !continue_ do
    let c = tr.tr_blocks.(!i) in
    last := c;
    enter t c;
    s.st_block_execs <- s.st_block_execs + 1;
    if !i > 0 then s.st_trace_interior <- s.st_trace_interior + 1;
    if t.tracing then begin
      Jt_trace.Trace.set_exec_origin c.cb_origin;
      Jt_trace.Trace.emit (Jt_trace.Trace.Block_exec { pc = c.cb_addr })
    end;
    (match tr.tr_overlay with
    | None ->
      let run = fused t c in
      exec_insns t ~budget ~plan:c.cb_plan ~run c
    | Some ov ->
      let k = !i in
      if streak then begin
        m.c_san_trace_elide_dom <- m.c_san_trace_elide_dom + ov.ov_s_dom.(k);
        m.c_san_trace_elide_streak <-
          m.c_san_trace_elide_streak + ov.ov_s_streak.(k);
        m.c_san_trace_elide_ind <- m.c_san_trace_elide_ind + ov.ov_s_ind.(k);
        exec_insns t ~budget ~plan:ov.ov_plans_streak.(k)
          ~run:ov.ov_runs_streak.(k) c
      end
      else begin
        m.c_san_trace_elide_dom <- m.c_san_trace_elide_dom + ov.ov_dom.(k);
        exec_insns t ~budget ~plan:ov.ov_plans.(k) ~run:ov.ov_runs.(k) c
      end);
    let running = Jt_vm.Vm.is_running vm in
    if (not running) || !i = n - 1 then begin
      (if c.cb_indirect_end && running && not t.ibl then
         Jt_vm.Vm.charge vm t.profile.p_indirect);
      continue_ := false
    end
    else begin
      let next = tr.tr_blocks.(!i + 1) in
      if next.cb_valid && vm.Jt_vm.Vm.pc = next.cb_addr then begin
        (if c.cb_indirect_end then
           Jt_vm.Vm.charge vm
             (if t.ibl then t.profile.p_ibl_hit else t.profile.p_indirect));
        incr i
      end
      else begin
        (if c.cb_indirect_end && not t.ibl then
           Jt_vm.Vm.charge vm t.profile.p_indirect);
        (* a dead constituent means a flush hit the trace: tear it down
           (the eager path normally already has) so the head can re-form
           over the regenerated code; the side exit re-enters the
           dispatcher, where the constituents' own untouched [cb_plan]s
           govern — every trace-elided check is back in force *)
        if not next.cb_valid then drop_trace t tr;
        continue_ := false
      end
    end
  done;
  t.trace_completed <- !i = n - 1 && Jt_vm.Vm.is_running vm && tr.tr_valid;
  !last

(* [exec_trace] for a trace without an elision overlay, with tracing
   off: every trace of the null client.  Per constituent it does what a
   chained block entry does, with no overlay match and no tracing test;
   block executions and interior transitions are added once, when the
   trace exits (a cut constituent adds them on its way out).  It is a
   loop of its own because, run through [exec_trace]'s loop, such traces
   cost the null DBT about 8% of [Vm.run]'s host time more ([bench
   dispatch]). *)
let exec_plain_trace t ~budget (tr : trace) =
  let vm = t.vm in
  let s = t.stats in
  s.st_trace_execs <- s.st_trace_execs + 1;
  if t.profile.p_per_block > 0 then Jt_vm.Vm.charge vm t.profile.p_per_block;
  let blocks = tr.tr_blocks in
  let n = Array.length blocks in
  let i = ref 0 in
  let c = ref blocks.(0) in
  let continue_ = ref true in
  let cut =
    try
      while !continue_ do
        let cur = !c in
        let run = fused t cur in
        enter t cur;
        exec_insns t ~budget ~plan:cur.cb_plan ~run cur;
        let running = Jt_vm.Vm.is_running vm in
        if (not running) || !i = n - 1 then begin
          (if cur.cb_indirect_end && running && not t.ibl then
             Jt_vm.Vm.charge vm t.profile.p_indirect);
          continue_ := false
        end
        else begin
          let next = blocks.(!i + 1) in
          if next.cb_valid && vm.Jt_vm.Vm.pc = next.cb_addr then begin
            (if cur.cb_indirect_end then
               Jt_vm.Vm.charge vm
                 (if t.ibl then t.profile.p_ibl_hit else t.profile.p_indirect));
            incr i;
            c := next
          end
          else begin
            (if cur.cb_indirect_end && not t.ibl then
               Jt_vm.Vm.charge vm t.profile.p_indirect);
            if not next.cb_valid then drop_trace t tr;
            continue_ := false
          end
        end
      done;
      false
    with Cut -> true
  in
  s.st_block_execs <- s.st_block_execs + !i + 1;
  s.st_trace_interior <- s.st_trace_interior + !i;
  if cut then raise Cut;
  t.trace_completed <- !i = n - 1 && Jt_vm.Vm.is_running vm && tr.tr_valid;
  !c

(* ---- trace-spine elision ----

   A trace is a single-entry straight line, so the JASan availability
   must-analysis becomes exact along it: a check whose address key is
   already available when control reaches it (no barrier, no redefinition
   of the key's registers since an earlier identical check) is redundant
   for this path, across constituent-block boundaries the per-block
   static pass cannot see.  The analysis runs once at trace-build time
   over the flattened spine; its product is an overlay of thinned plans,
   never a mutation of the constituents' own [cb_plan]s. *)

module Avail = Jt_analysis.Avail

type spine_el = {
  se_bi : int;  (* constituent position within the trace *)
  se_k : int;  (* instruction slot within the constituent *)
  se_addr : int;
  se_insn : Insn.t;
  se_metas : meta list;
}

(* One decision walk from a given entry state: which checks may be
   dropped, each with the check that made its key available, plus the
   walk's final state.  A check of an unavailable key gens it; a
   poisoning shadow write clears the state, as does any opaque action
   the pass cannot see through.  An unpoison only widens what is
   addressable, so it is not a barrier.  A spine has no joins, so no key
   is ever marked [Several] and every available key has a witness.
   Seeding a walk with the previous walk's final state carries the
   witnesses across the back-edge for the streak variant. *)
let decide_spine ~entry spine =
  let drops = Hashtbl.create 16 in
  let st = ref entry in
  Array.iter
    (fun el ->
      List.iteri
        (fun j (m : meta) ->
          match m.m_kind with
          | M_check k -> (
            match Avail.witness k !st with
            | Some w ->
              Hashtbl.replace drops (el.se_bi, el.se_k, j)
                ("trace-dom", w, el.se_addr)
            | None -> st := Avail.gen k el.se_addr !st)
          | M_shadow_write -> st := Avail.Map.empty
          | M_opaque ->
            if Option.is_some m.m_action then st := Avail.Map.empty
          | M_unpoison -> ())
        el.se_metas;
      st := Avail.insn_transfer el.se_insn !st)
    spine;
  (drops, !st)

(* Recognize the counted-loop shape on a spine and collect the affine
   checks the induction guard can hoist.  Mirrors the static SCEV
   recognizer ([cmp ivar, bound; jcc {>=,>} exit] at the head, exactly
   one definition of [ivar] and it is [add ivar, 1]) but accepts a
   register-held bound, provided that register is never written on the
   spine — the streak re-entry condition makes "never written on the
   spine" equivalent to "stable for the remaining trips".  The whole
   spine is disqualified if anything on it can change shadow state
   (calls/syscalls, poisoning or unpoisoning metas, opaque actions):
   the guard checks shadow once at onset, so shadow must be frozen for
   the streak's duration.  Returns the guard plus the plan positions of
   the hoisted checks (with their instruction addresses, for the
   decision log). *)
let detect_induction ~drops_streak (spine : spine_el array) =
  let n = Array.length spine in
  if n < 3 then None
  else begin
    (* The [cmp ivar, bound; jcc {>=,>}] exit test sits at the spine's
       head when the trace was recorded from the loop-head block, or at
       its tail when NET picked the (hotter) body block and the spine is
       the same iteration rotated.  Either way the trip-range math is
       identical: under a streak, re-entry came through the test's
       fall-through, so the onset value [i0] is a trip the body really
       runs (tail form) or is gated before any access (head form).  The
       trace must stay on the fall-through path: a taken target that
       re-enters the spine would invert the exit semantics. *)
    let pair_at p =
      match (spine.(p).se_insn, spine.(p + 1).se_insn) with
      | Insn.Cmp (ivar, bnd), Insn.Jcc (cond, target) -> (
        let stays_in_trace =
          if p + 2 < n then target = spine.(p + 2).se_addr
          else target = spine.(0).se_addr
        in
        match cond with
        | _ when stays_in_trace -> None
        | Insn.Gt | Insn.Ugt -> Some (ivar, bnd, true)
        | Insn.Ge | Insn.Uge -> Some (ivar, bnd, false)
        | _ -> None)
      | _ -> None
    in
    let pair =
      match pair_at (n - 2) with
      | Some (i, b, inc) -> Some (i, b, inc, n - 2)
      | None -> (
        match pair_at 0 with
        | Some (i, b, inc) -> Some (i, b, inc, 0)
        | None -> None)
    in
    match pair with
    | None -> None
    | Some (ivar, bnd, ig_incl, cmp_pos) ->
      let defined r =
        Array.exists
          (fun el -> List.exists (Reg.equal r) (Insn.defs el.se_insn))
          spine
      in
      let ivar_defs = ref [] in
      Array.iter
        (fun el ->
          if List.exists (Reg.equal ivar) (Insn.defs el.se_insn) then
            ivar_defs := el.se_insn :: !ivar_defs)
        spine;
      let unit_step =
        match !ivar_defs with
        | [ Insn.Binop (Insn.Add, r, Insn.Imm 1) ] -> Reg.equal r ivar
        | _ -> false
      in
      let bound =
        match bnd with
        | Insn.Imm v -> Some (Ib_imm (Word.to_signed v))
        | Insn.Reg r ->
          if Reg.equal r ivar || defined r then None else Some (Ib_reg r)
      in
      let shadow_frozen =
        not
          (Array.exists
             (fun el ->
               (match el.se_insn with
               | Insn.Call _ | Insn.Call_ind _ | Insn.Syscall _ -> true
               | _ -> false)
               || List.exists
                    (fun (m : meta) ->
                      match (m.m_kind, m.m_action) with
                      | (M_shadow_write | M_unpoison), _ -> true
                      | M_opaque, Some _ -> true
                      | (M_opaque | M_check _), _ -> false)
                    el.se_metas)
             spine)
      in
      if not (unit_step && shadow_frozen) then None
      else (
        match bound with
        | None -> None
        | Some ig_bound ->
          let inc_seen = ref 0 in
          let checks = ref [] and sites = ref [] in
          Array.iter
            (fun el ->
              List.iteri
                (fun j (m : meta) ->
                  match m.m_kind with
                  | M_check (b, x, _s, _d, _w)
                    when x = Reg.index ivar
                         && b <> Reg.index ivar
                         && (b < 0 || not (defined (Reg.of_index b)))
                         && not (Hashtbl.mem drops_streak (el.se_bi, el.se_k, j))
                    ->
                    checks := (m, !inc_seen) :: !checks;
                    sites := ((el.se_bi, el.se_k, j), el.se_addr) :: !sites
                  | _ -> ())
                el.se_metas;
              if List.exists (Reg.equal ivar) (Insn.defs el.se_insn) then
                incr inc_seen)
            spine;
          if !checks = [] then None
          else
            Some
              ( { ig_ivar = ivar; ig_bound; ig_incl; ig_checks = List.rev !checks },
                spine.(cmp_pos).se_addr,
                List.rev !sites ))
  end

let build_overlay (blocks : cached array) =
  let n = Array.length blocks in
  let has_tagged =
    Array.exists
      (fun (c : cached) ->
        Array.exists
          (List.exists (fun (m : meta) ->
               match m.m_kind with
               | M_check _ -> true
               | M_opaque | M_unpoison | M_shadow_write -> false))
          c.cb_plan)
      blocks
  in
  if not has_tagged then None
  else begin
    let spine =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun bi (c : cached) ->
                Array.mapi
                  (fun k (addr, insn, _len) ->
                    {
                      se_bi = bi;
                      se_k = k;
                      se_addr = addr;
                      se_insn = insn;
                      se_metas = c.cb_plan.(k);
                    })
                  c.cb.insns)
              blocks))
    in
    (* One walk is the fixpoint on a spine; its final state seeds the
       steady-state (streak) walk: for a straight line, out(out(bot)) =
       out(bot), so this is also the back-edge fixpoint, and its sites
       are the checks a streak entry inherits from the previous trip. *)
    let drops_base, out = decide_spine ~entry:Avail.Map.empty spine in
    let drops_streak, _ = decide_spine ~entry:out spine in
    (* a streak drop the base walk also made keeps its reason; one only
       the carried-over availability justifies is a loop-invariant
       (streak) elision *)
    Hashtbl.iter
      (fun key (reason, wit, addr) ->
        if not (Hashtbl.mem drops_base key) then
          Hashtbl.replace drops_streak key ("trace-streak", wit, addr)
        else ignore reason)
      (Hashtbl.copy drops_streak);
    (* induction-range hoisting is streak-only: the cold plans keep the
       per-iteration checks, the steady-state plans trade them for the
       onset guard.  The witness recorded for a "trace-ind" drop is the
       loop-head compare whose bound the guard reads. *)
    let ind = detect_induction ~drops_streak spine in
    (match ind with
    | Some (_, cmp_addr, sites) ->
      List.iter
        (fun (key, addr) ->
          Hashtbl.replace drops_streak key ("trace-ind", cmp_addr, addr))
        sites
    | None -> ());
    if Hashtbl.length drops_base = 0 && Hashtbl.length drops_streak = 0 then
      None
    else begin
      let filter_plans drops =
        Array.mapi
          (fun bi (c : cached) ->
            Array.mapi
              (fun k metas ->
                List.filteri
                  (fun j _ -> not (Hashtbl.mem drops (bi, k, j)))
                  metas)
              c.cb_plan)
          blocks
      in
      let counts drops reason =
        let a = Array.make n 0 in
        Hashtbl.iter
          (fun (bi, _, _) (r, _, _) -> if r = reason then a.(bi) <- a.(bi) + 1)
          drops;
        a
      in
      let decisions =
        Hashtbl.fold (fun _ (r, w, a) acc -> (a, r, w) :: acc) drops_base []
        @ Hashtbl.fold
            (fun key (r, w, a) acc ->
              if Hashtbl.mem drops_base key then acc else (a, r, w) :: acc)
            drops_streak []
        |> List.sort compare
      in
      let fuse_all plans = Array.mapi (fun bi c -> fuse c plans.(bi)) blocks in
      let plans = filter_plans drops_base
      and plans_streak = filter_plans drops_streak in
      Some
        {
          ov_plans = plans;
          ov_plans_streak = plans_streak;
          ov_runs = fuse_all plans;
          ov_runs_streak = fuse_all plans_streak;
          ov_ind = Option.map (fun (g, _, _) -> g) ind;
          ov_dom = counts drops_base "trace-dom";
          ov_s_dom = counts drops_streak "trace-dom";
          ov_s_streak = counts drops_streak "trace-streak";
          ov_s_ind = counts drops_streak "trace-ind";
          ov_decisions = decisions;
        }
    end
  end

(* ---- trace recording (NET) ---- *)

let finalize_recording t =
  match t.recording with
  | None -> ()
  | Some (head, acc) ->
    t.recording <- None;
    (* keep the longest prefix still alive and executable *)
    let rec prefix = function
      | c :: rest when c.cb_valid && c.cb_n > 0 ->
        c :: prefix rest
      | _ -> []
    in
    let blocks = prefix (List.rev acc) in
    if List.length blocks >= 2 then begin
      let arr = Array.of_list blocks in
      assert (Array.for_all has_payload arr);
      let overlay = if t.trace_elide then build_overlay arr else None in
      (* a recording starts only at a block with no live trace; retire
         any regardless, so the live count stays exact *)
      drop_trace t arr.(0).cb_head_trace;
      let tr =
        { tr_head = head; tr_blocks = arr; tr_valid = true; tr_overlay = overlay }
      in
      arr.(0).cb_head_trace <- tr;
      t.n_traces_live <- t.n_traces_live + 1;
      Array.iter
        (fun (c : cached) ->
          if not (List.memq tr c.cb_traces) then
            c.cb_traces <- tr :: c.cb_traces)
        arr;
      t.stats.st_traces_built <- t.stats.st_traces_built + 1;
      if t.tracing then begin
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Trace_build { head; blocks = Array.length arr });
        match overlay with
        | Some ov ->
          List.iter
            (fun (insn, reason, witness) ->
              Jt_trace.Trace.emit
                (Jt_trace.Trace.Trace_elide { head; insn; reason; witness }))
            ov.ov_decisions
        | None -> ()
      end
    end

(* Head-execution counting and recording bookkeeping for one
   dispatcher-level entry of [c] at [pc] (not reached through a trace).
   Ends an in-progress recording when it loops back to its head, reaches
   another live trace's head, or hits the length cap; otherwise appends
   the entered block.  A block whose entry count crosses the hot
   threshold (and that has no live trace yet) starts a recording. *)
let[@inline] note_entry t (c : cached) pc =
  match t.recording with
  | Some (head, acc) ->
    if
      pc = head
      || List.length acc >= max_trace_len
      || trace_alive c.cb_head_trace
    then finalize_recording t
    else t.recording <- Some (head, c :: acc)
  | None ->
    c.cb_hot <- c.cb_hot + 1;
    if c.cb_hot >= hot_threshold && not (trace_alive c.cb_head_trace) then
      t.recording <- Some (pc, [ c ])

let emit_sever t (p : cached) (c : cached) =
  if t.tracing then
    Jt_trace.Trace.emit
      (Jt_trace.Trace.Chain_sever
         { from_pc = p.cb_addr; to_pc = c.cb_addr })

(* The live chain link out of [p] for [pc], or [no_block].  A link into
   a dead block is severed on the way. *)
let[@inline] chain_target t (p : cached) pc =
  if p.cb_succ_taken = pc then (
    match p.cb_link_taken with
    | Some c when c.cb_valid -> c
    | Some c ->
      emit_sever t p c;
      p.cb_link_taken <- None;
      no_block
    | None -> no_block)
  else if p.cb_succ_fall = pc then (
    match p.cb_link_fall with
    | Some c when c.cb_valid -> c
    | Some c ->
      emit_sever t p c;
      p.cb_link_fall <- None;
      no_block
    | None -> no_block)
  else no_block

(* Probe the inline cache of the indirect-ending block [p] for [pc] and
   charge the outcome: the cached target on a hit, [no_block] on a
   miss. *)
let ibl_resolve t (p : cached) pc =
  let vm = t.vm in
  match ibl_probe p pc with
  | Some c ->
    Jt_vm.Vm.charge vm t.profile.p_ibl_hit;
    t.stats.st_ibl_hits <- t.stats.st_ibl_hits + 1;
    if t.tracing then
      Jt_trace.Trace.emit
        (Jt_trace.Trace.Ibl_hit { site = p.cb_addr; target = pc });
    c
  | None ->
    Jt_vm.Vm.charge vm t.profile.p_indirect;
    t.stats.st_ibl_misses <- t.stats.st_ibl_misses + 1;
    if t.tracing then
      Jt_trace.Trace.emit
        (Jt_trace.Trace.Ibl_miss { site = p.cb_addr; target = pc });
    no_block

(* Full dispatcher resolution of [pc] after [p]: find or translate the
   block, then install it as [p]'s chain link and, when [p]'s inline
   cache was just probed ([probed]), into that cache. *)
let dispatch t (p : cached) ~probed pc =
  t.stats.st_dispatch_entries <- t.stats.st_dispatch_entries + 1;
  let c = Jt_vm.Addr_table.find t.blocks pc in
  let c = if c != no_block then c else translate t pc in
  if t.chain && p.cb_valid && (p.cb_succ_taken = pc || p.cb_succ_fall = pc)
  then begin
    if p.cb_succ_taken = pc then p.cb_link_taken <- Some c
    else p.cb_link_fall <- Some c;
    if t.tracing then
      Jt_trace.Trace.emit
        (Jt_trace.Trace.Chain_link { from_pc = p.cb_addr; to_pc = pc })
  end;
  if probed && p.cb_valid then ibl_install p c;
  c

(* The dispatch loop.  After a block whose last instruction is a direct
   transfer, the next PC is compared against the block's static
   successors: a previously installed chain link is followed without
   touching the code cache (a chain hit).  After an indirect
   transfer, the exiting block's per-site inline cache is probed: a hit
   costs [p_ibl_hit] and skips the dispatcher, a miss pays the full
   [p_indirect] lookup and installs the resolved target for next time.
   A live trace registered at the target address upgrades the entry to a
   superblock execution.  Chaining and traces affect only host-level
   dispatch work; the IBL additionally replaces the flat per-indirect
   charge with a hit/miss split (cheaper on hits, never dearer).
   Program output, instruction counts and violations are bit-identical
   with every combination of the knobs.  The loop state is sentinels,
   not options, so a block entry allocates nothing. *)
let run ?(fuel = 200_000_000) t =
  let vm = t.vm in
  let budget = vm.Jt_vm.Vm.icount + fuel in
  t.tracing <- Jt_trace.Trace.is_enabled ();
  t.counters <- Jt_metrics.Metrics.Counters.current ();
  (* The block that just exited, or [no_block]. *)
  let prev = ref no_block in
  (* The streak: the trace that completed head-to-tail on the immediately
     preceding dispatch, or [no_trace].  If the very next dispatch
     re-enters that same trace, only host dispatcher code ran in between,
     so the availability its spine analysis computed at the tail really
     holds at the head — the steady-state plan variant is legal.
     Anything else (a plain block, a phase change, a side exit) breaks
     the streak. *)
  let streak = ref no_trace in
  (* Whether the previous dispatch's trace execution already ran in
     streak mode: the induction guard fires only on the transition into
     a streak (onset), never on its continuation trips. *)
  let was_streak = ref false in
  (* A cut block ends where its overwritten instructions begin: the loop
     resumes at the PC with no previous block and no streak, and the
     block's exit charges nothing, since its last instruction did not
     run. *)
  (* no closure around the loop: [prev] and [streak] stay unboxed *)
  (try
    while Jt_vm.Vm.is_running vm do
      try
        while Jt_vm.Vm.is_running vm do
          if vm.Jt_vm.Vm.icount >= budget then
            vm.Jt_vm.Vm.status <- Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
          else if vm.Jt_vm.Vm.pc = Jt_vm.Vm.sentinel then begin
            (* A phase-ending return is still an indirect transfer; with the
               IBL on its (probe-skipping) charge lands here.  Not counted
               as an IBL miss: no code-cache lookup happens for the
               sentinel. *)
            if t.ibl && !prev.cb_indirect_end then
              Jt_vm.Vm.charge vm t.profile.p_indirect;
            prev := no_block;
            streak := no_trace;
            was_streak := false;
            Jt_vm.Vm.advance_phase vm
          end
          else begin
            let pc = vm.Jt_vm.Vm.pc in
            let p = !prev in
            let linked = if t.chain then chain_target t p pc else no_block in
            let cached =
              if linked != no_block then begin
                t.stats.st_chain_hits <- t.stats.st_chain_hits + 1;
                linked
              end
              else begin
                let probed = t.ibl && p.cb_indirect_end in
                let hit = if probed then ibl_resolve t p pc else no_block in
                if hit != no_block then hit else dispatch t p ~probed pc
              end
            in
            if cached.cb_n = 0 then begin
              t.stats.st_decode_faults <- t.stats.st_decode_faults + 1;
              vm.Jt_vm.Vm.status <- Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault pc)
            end
            else begin
              let tr = if t.trace then cached.cb_head_trace else no_trace in
              let last =
                if trace_alive tr then begin
                  (* reaching a live trace head ends any recording *)
                  finalize_recording t;
                  let use_streak = !streak == tr in
                  let last =
                    if tr.tr_overlay == None && not t.tracing then
                      exec_plain_trace t ~budget tr
                    else
                      exec_trace t ~budget ~streak:use_streak
                        ~streak_onset:(use_streak && not !was_streak) tr
                  in
                  streak := (if t.trace_completed then tr else no_trace);
                  was_streak := use_streak;
                  last
                end
                else begin
                  streak := no_trace;
                  was_streak := false;
                  if t.trace then note_entry t cached pc;
                  exec_block t ~budget cached;
                  cached
                end
              in
              prev :=
                if Jt_vm.Vm.is_running vm && last.cb_valid then last
                else begin
                  (* the exit of a block that invalidated itself cannot be
                     probed next iteration; settle its indirect charge now *)
                  if t.ibl && last.cb_indirect_end && Jt_vm.Vm.is_running vm then
                    Jt_vm.Vm.charge vm t.profile.p_indirect;
                  no_block
                end
            end
          end
        done
      with Cut ->
        enter t no_block;
        prev := no_block;
        streak := no_trace;
        was_streak := false
    done
  with e ->
    enter t no_block;
    raise e);
  enter t no_block;
  (* Every block execution must be accounted to exactly one entry path
     (dispatcher, chain link, IBL hit, or trace interior); dispatcher
     entries that resolve to an empty block decode-fault without
     executing.  Checked after every run, tracing enabled or not. *)
  let s = t.stats in
  Jt_trace.Trace.entry_accounting ~dispatch:s.st_dispatch_entries
    ~chain:s.st_chain_hits ~ibl:s.st_ibl_hits
    ~trace_interior:s.st_trace_interior ~decode_faults:s.st_decode_faults
    ~block_execs:s.st_block_execs;
  (* debug oracle for the incremental live count: eager teardown must
     keep it equal to a full recount at every quiescent point *)
  assert (t.n_traces_live = traces_live_scan t)

let stats t = t.stats

let block_spans t =
  List.rev
    (Jt_vm.Addr_table.fold
       (fun a (c : cached) acc -> (a, c.cb_end - a) :: acc)
       t.blocks [])

(* Zero the per-engine counters so an engine reused across workloads (or
   across repeated runs of one workload) reports per-run numbers.  The
   code cache, traces and inline caches are left intact: resetting stats
   must not change what executes. *)
let reset_stats t =
  let s = t.stats in
  s.st_blocks_static <- 0;
  s.st_blocks_dynamic <- 0;
  s.st_block_execs <- 0;
  s.st_chain_hits <- 0;
  s.st_dispatch_entries <- 0;
  s.st_ibl_hits <- 0;
  s.st_ibl_misses <- 0;
  s.st_traces_built <- 0;
  s.st_trace_execs <- 0;
  s.st_trace_interior <- 0;
  s.st_decode_faults <- 0

(* Elision decisions of the live traces, sorted by head address:
   [(head, [(insn, reason, witness)])].  Diagnostics for the CLI's
   [analyze --facts] dump; reasons are ["trace-dom"], ["trace-streak"]
   and ["trace-ind"]. *)
let trace_elisions t =
  Jt_vm.Addr_table.fold
    (fun head (c : cached) acc ->
      let tr = c.cb_head_trace in
      match tr.tr_overlay with
      | Some ov when tr.tr_valid -> (head, ov.ov_decisions) :: acc
      | Some _ | None -> acc)
    t.blocks []
  |> List.rev

let dynamic_block_fraction t =
  let s = t.stats in
  let total = s.st_blocks_static + s.st_blocks_dynamic in
  if total = 0 then 0.0
  else float_of_int s.st_blocks_dynamic /. float_of_int total
