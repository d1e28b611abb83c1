(** The dynamic binary modifier engine (the DynamoRIO analog).

    Drives a VM the way a dynamic binary translator drives a process:
    basic blocks are discovered at their first execution, handed to the
    instrumentation client, and placed in a code cache; direct branches
    between cached blocks are linked for free, while indirect transfers
    pay a target lookup on every execution.

    The engine implements the Janitizer-specific machinery of sections
    3.4.1–3.4.2: each module's rule file bound at module load time to
    its index ({!Jt_rules.Rules.index}, built once per file and keyed by
    link address; a PIC module is looked up at [addr - base]), block
    classification into statically-seen versus dynamically-discovered
    code, and dispatch of each block to the client with its applicable
    rules.

    The code cache is a {!Jt_vm.Addr_table} of blocks by start address.
    A block is decoded with {!Jt_vm.Vm.decode}, so the VM's own decode
    table stays empty.  A [cache_flush] (or a dlclose) drops every block
    whose byte span overlaps the flushed range, including one that
    starts before it; the flush visits only the table's allocated
    levels, so its cost does not grow with the range's length. *)

open Jt_isa

type block = {
  bb_addr : int;  (** run-time address *)
  insns : (int * Insn.t * int) array;  (** (address, instruction, length) *)
}

(** What a piece of instrumentation does to shadow state, as far as the
    trace-spine elision pass can tell.  Tools that want their checks
    considered for trace-level elision tag them [M_check] with the
    access's {!Jt_analysis.Avail.Key.t}.  [M_unpoison] marks a write
    that only makes memory addressable: it is transparent to check
    availability (an earlier check still dominates a later one across
    it), but it changes shadow state, so a spine holding one never gets
    the induction guard.  Everything else stays [M_opaque] (an opaque
    meta with an action is treated as a conservative barrier) or
    [M_shadow_write] (a poisoning write — always a barrier). *)
type meta_kind =
  | M_opaque
  | M_check of Jt_analysis.Avail.Key.t
  | M_unpoison
  | M_shadow_write

(** One piece of inserted instrumentation, executed immediately before
    its anchor instruction.  [m_cost] is the full cycle price including
    whatever save/restore traffic the tool decided it needs. *)
type meta = {
  m_cost : int;
  m_action : (Jt_vm.Vm.t -> unit) option;
  m_kind : meta_kind;
}

type plan = meta list array
(** Per-instruction instrumentation, indexed like [block.insns].  Use
    {!no_plan} for "translate as-is". *)

val no_plan : block -> plan

(** How the block reached the client (section 3.4.1): via rewrite rules
    from the static analyzer, or discovered dynamically with no static
    information (dynamically generated / dlopen'd without rules / missed
    by static control-flow recovery). *)
type provenance = Static_rules | Dynamic_only

type client = {
  cl_on_block :
    Jt_vm.Vm.t -> block -> provenance -> rules_at:(int -> Jt_rules.Rules.t list) -> plan;
      (** [rules_at a]: the rules anchored at run-time address [a], in
          file order and in run-time coordinates.  The engine calls it
          when it translates a block and again when it rebuilds the
          payload the block dropped after its first execution (see
          {!young_blocks}), so the plan must be a function of the block,
          its provenance and its rules: it may not read machine state or
          count calls. *)
}

val young_blocks : int
(** How many blocks keep their payload after their first execution: the
    last [young_blocks] to end a first execution.  A block pushed out of
    them before its second execution drops its decoded instructions,
    compiled ops and plan, and its second execution rebuilds them
    silently: no cycles, no stats, no events.  A block first run while a
    trace is recorded keeps them. *)

(** Engine cost profile, so baseline translators (Lockdown's lightweight
    libdetox) can share the machinery with different constants. *)
type profile = {
  p_translate_block : int;
  p_translate_insn : int;
  p_indirect : int;
      (** per executed indirect transfer (incl. returns) that misses the
          inline caches and falls back to the dispatcher lookup *)
  p_ibl_hit : int;
      (** per indirect transfer resolved by a per-site inline cache; equal
          to [p_indirect] for engines without an IBL fast path *)
  p_per_block : int;  (** per block execution *)
}

val dynamorio : profile
val lightweight : profile

(** The engine's dispatch counters.  Each dispatch event is counted here
    and nowhere else ([Jt_metrics.Metrics.Counters] holds no copy). *)
type stats = {
  mutable st_blocks_static : int;  (** unique blocks found in rule tables *)
  mutable st_blocks_dynamic : int;  (** unique blocks that missed *)
  mutable st_block_execs : int;
  mutable st_chain_hits : int;
      (** block transfers that followed a direct chain link, skipping the
          dispatcher entirely *)
  mutable st_dispatch_entries : int;
      (** dispatcher entries: code-cache probes (and translations) *)
  mutable st_ibl_hits : int;
      (** indirect transfers resolved by a per-site inline cache *)
  mutable st_ibl_misses : int;
      (** indirect transfers that probed an inline cache and missed *)
  mutable st_traces_built : int;  (** superblock traces stitched *)
  mutable st_trace_execs : int;  (** trace executions entered at a head *)
  mutable st_trace_interior : int;
      (** block transitions taken inside a trace without any dispatch *)
  mutable st_decode_faults : int;
      (** entries that resolved to an empty (undecodable) block, which
          faults without executing *)
}

type t

val create :
  vm:Jt_vm.Vm.t ->
  ?profile:profile ->
  ?client:client ->
  ?chain:bool ->
  ?ibl:bool ->
  ?trace:bool ->
  ?trace_elide:bool ->
  ?rules_for:(string -> Jt_rules.Rules.file option) ->
  unit ->
  t
(** Create an engine bound to [vm].  Must be called before [Vm.boot] so
    that the engine observes startup module loads (it subscribes to the
    loader and to cache-flush events).  [rules_for] supplies each module's
    statically generated rule file, if one exists.

    [chain] (default true) enables direct block chaining: blocks ending
    in a direct [Jmp]/[Jcc]/[Call] are linked to their translated
    successors, so chains of hot blocks execute without re-entering the
    dispatcher or re-probing the code cache.  Links are
    severed on invalidation.  Chaining changes only host-level dispatch
    work ({!stats}); simulated cycles, outputs
    and violations are bit-identical with it off.

    [ibl] (default true) enables per-site indirect-branch inline caches:
    each block ending in [Jmp_ind]/[Call_ind]/[Ret] keeps a last-target
    slot plus a small associative table of recent targets, probed before
    the dispatcher.  A hit charges the profile's cheaper [p_ibl_hit]; only
    a miss pays [p_indirect] and re-enters the dispatcher.  Program
    output, exit status, instruction counts and violations are identical
    with it off; simulated cycles drop (that is the modeled win).

    [trace] (default true) enables NET-style hot-trace formation: block
    heads that cross a hotness threshold record the next-executing tail of
    cached blocks into a superblock, which then runs head-to-tail with a
    single per-block dispatch charge.  Traces live on top of the ordinary
    code cache: any range invalidation (dlopen unload, [flush_range],
    self-modifying code) that kills a constituent block kills the trace,
    which is then re-formed on demand.  Like [ibl], observable program
    behavior is bit-identical with it off.

    [trace_elide] (default true) runs the JASan availability
    must-analysis along each newly recorded trace spine and builds an
    overlay of thinned instrumentation plans: checks dominated within
    the trace by an earlier check of the same address key are elided,
    and a steady-state plan variant
    additionally elides loop-invariant checks when the trace re-enters
    its own head immediately after a completed trip.  The constituents'
    own plans are never modified, so side exits, teardown and ordinary
    block execution structurally restore every check.  Exit status,
    output, instruction counts and the deduplicated violation set are
    identical with it off; only simulated cycles (check work) drop. *)

val run : ?fuel:int -> t -> unit
(** Execute the booted program to completion under the engine.

    [fuel] (default 200 million) bounds the instructions this call
    retires, exactly as in {!Jt_vm.Vm.run}: once it has retired [fuel]
    instructions the run stops with [Fault Out_of_fuel], at the same PC
    and with the same registers and output as [Vm.run ~fuel].  From its
    second execution on, a translated block runs as one fused closure
    of its instructions and instrumentation, but only when the
    remaining budget covers all of it; a block that would cross the
    budget runs instruction by instruction.

    The calling domain's tracing state ({!Jt_trace.Trace.is_enabled})
    and its {!Jt_metrics.Metrics.Counters} record are sampled once, when
    [run] starts, and used for the whole run: enabling or disabling
    tracing mid-run takes effect at the next [run].  Only invalidation
    events, which a flush between runs can also raise, read the live
    state.

    On the way out, asserts the entry-accounting identity
    [st_dispatch_entries + st_chain_hits + st_ibl_hits + st_trace_interior
     = st_block_execs + st_decode_faults]
    via {!Jt_trace.Trace.entry_accounting} (raising
    [Jt_trace.Trace.Invariant_failure] on a mismatch), tracing enabled
    or not. *)

val stats : t -> stats

val block_spans : t -> (int * int) list
(** The start address and byte length of every block in the code cache,
    ascending (an empty, decode-faulting block spans 1 byte).  Nothing
    in the program reads it: it is the oracle hook through which
    [test_dbt] ("flush cost") sees what the code cache holds. *)

val reset_stats : t -> unit
(** Zero every {!stats} counter without touching the code cache, chain
    links, inline caches or traces, so an engine reused across workloads
    reports per-run numbers.  The invariant
    [st_dispatch_entries + st_chain_hits + st_ibl_hits + st_trace_interior
     = st_block_execs + st_decode_faults] holds from any reset point. *)

val traces_live : t -> int
(** Number of built traces whose constituent blocks are all still valid
    (i.e. would still execute if their head is reached).  O(1): the count
    is maintained incrementally by trace build and teardown, which is
    exact because invalidating any constituent eagerly tears its traces
    down.  Read only by test_dbt_traces "fastpaths" and "trace-elide". *)

val traces_live_scan : t -> int
(** The full-recount oracle for {!traces_live} — walks every cached
    block's head trace and validates every constituent.  O(traces · length); for debug
    assertions and tests only.  {!run} asserts the two agree on exit. *)

val trace_elisions : t -> (int * (int * string * int) list) list
(** Elision decisions of the live traces, sorted by head address:
    [(head, [(insn, reason, witness)])] with reasons ["trace-dom"],
    ["trace-streak"] and ["trace-ind"].  Diagnostics (the CLI's
    [analyze --facts] dump). *)

val dynamic_block_fraction : t -> float
(** Fraction of executed unique blocks that were only discovered
    dynamically (Figure 14). *)
