(** Janitizer's static analyzer (Figure 2a).

    For each statically available module this runs the core-layer
    pipeline — disassembly and control-flow recovery over *all* executable
    sections, then the generic helper analyses (liveness, canary
    detection, SCEV loop bounds, def-use chains) — and hands
    the bundle to a security tool's static pass, which turns it into
    rewrite rules. *)

type fn_analysis = {
  fa_fn : Jt_cfg.Cfg.fn;
  fa_liveness : Jt_analysis.Liveness.t;
  fa_canaries : Jt_analysis.Canary.site list;
  fa_scev : Jt_analysis.Scev.summary list;
  fa_vsa : Jt_analysis.Vsa.t Lazy.t;
      (** value-set analysis, computed on first force (also after
          {!of_ir}: it is not persisted); already bailed (all-[Top])
          when the module breaks calling conventions *)
  fa_domtree : Jt_cfg.Domtree.t Lazy.t;
      (** [fa_fn]'s [f_dom], already built by {!Jt_cfg.Cfg.build} (on a
          warm load too: {!of_ir} rebuilds the CFG) *)
  fa_defuse : Jt_analysis.Defuse.t Lazy.t;
      (** def-use chains, computed on first force; not persisted *)
}

type t = {
  sa_mod : Jt_obj.Objfile.t;
  sa_disasm : Jt_disasm.Disasm.t;
  sa_cfg : Jt_cfg.Cfg.t;
  sa_fns : fn_analysis list;
  sa_fn_array : fn_analysis array;
      (** [sa_fns] as an array, aligned with [sa_cfg]'s [c_fns]: the
          function index of the CFG's [c_block_fn] selects here *)
  sa_reliable_conventions : bool;
      (** false when the module breaks the calling convention
          (section 4.1.2): liveness results are replaced by the
          conservative all-live fallback *)
  sa_raw_code_ptrs : int list Lazy.t;
      (** unfiltered sliding-window pointer-scan results; carried in the
          IR so warm loads skip the scan *)
  sa_cpa : Jt_analysis.Cpa.t Lazy.t;
      (** per-indirect-call-site code-pointer provenance; forcing it on
          a computed analysis forces VSA for every function.  Analyses
          rebuilt by {!of_ir} import it from [ir_cpa] instead *)
  sa_callgraph : Jt_cfg.Callgraph.t Lazy.t;
      (** call graph with indirect edges resolved through [sa_cpa] *)
  sa_summaries : (int, Jt_analysis.Interproc.summary) Hashtbl.t Lazy.t;
      (** interprocedural clobber/read/barrier summaries with indirect
          calls resolved through [sa_cpa] — the shared fact base behind
          JCFI per-site sets and JASan cross-call elision *)
  sa_ir : Jt_ir.Ir.t Lazy.t;
      (** the serializable form of this analysis.  Forcing it forces
          [sa_cpa], and through it every function's VSA — only
          store-backed paths pay that *)
}

val analyze : ?store:Jt_ir.Store.t -> Jt_obj.Objfile.t -> t
(** With a [store], look the module up by content digest first: a hit
    reconstructs the full analysis from the stored IR ({!of_ir}) without
    re-running the analyzer; a miss runs {!compute} and persists its IR.
    Reconstruction failures degrade to {!compute} with a warning. *)

val compute : Jt_obj.Objfile.t -> t
(** The real analysis: disassembly, CFG recovery and the per-function
    passes.  Each domain keeps one slot keyed by the module's physical
    identity ([==]): the first request for a module computes and is not
    kept, the second consecutive one computes and is kept, and every
    further consecutive request returns that kept [t] without
    recomputing.  A request for another module empties the slot before
    computing.  Each computation, not each call, increments
    {!analyses_performed}. *)

val of_ir : Jt_obj.Objfile.t -> Jt_ir.Ir.t -> t
(** Rebuild a full analysis from a stored IR: instruction spans
    re-decoded from the module's own bytes, the CFG rebuilt over them by
    {!Jt_cfg.Cfg.build} (so it is the cold CFG by construction), the
    fixpoint facts restored from [ir_fns]; VSA and def-use are
    recomputed lazily.  Every query and every generated rule is
    identical to what {!compute} would produce.  Not counted by
    {!analyses_performed}.  @raise Failure on any inconsistency (digest
    mismatch, undecodable span, [ir_fns] not naming the rebuilt CFG's
    functions one for one in entry order). *)

val to_ir : t -> Jt_ir.Ir.t
(** [Lazy.force sa.sa_ir]. *)

val analyses_performed : unit -> int
(** Process-wide count of analyses {!compute} actually computed (an
    [Atomic], aggregated across pool domains); a {!compute} answered
    from its slot and an {!of_ir} rebuild are not counted.  The counter
    behind the warm-start "zero re-analysis" gate. *)

val fn_of_addr : t -> int -> fn_analysis option
(** The analyzed function whose CFG contains the instruction address:
    the CFG's instruction -> block -> function index
    ({!Jt_cfg.Cfg.module_block_of_insn}, [c_block_fn]), so the first
    function by entry that holds the instruction's block. *)

val all_block_addrs : t -> int list

val code_pointer_scan : t -> int list
(** Sliding-window constants that fall on *instruction boundaries* of the
    recovered disassembly (the BinCFI refinement step). *)

val function_entries : t -> int list
(** Discovered function entries (symbols, direct-call targets, entry
    point). *)
