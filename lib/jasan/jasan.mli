(** JASan: the hybrid binary address sanitizer (section 4.1).

    Protection policy, mirroring the paper (itself inspired by
    RetroWrite's sanitizer):

    - full heap-object protection: the allocator is interposed to place
      redzones around every block, freed blocks stay poisoned
      (use-after-free), and every instrumented load/store checks the
      shadow;
    - stack protection at stack-frame granularity, by poisoning the
      canary slots found by canary analysis;
    - globals are not protected (no type information in binaries).

    The static pass uses cross-block analysis to (a) skip accesses that
    are constant-offset frame slots (left to the canary policy),
    PC-relative, covered by a hoisted SCEV range check or dominated by
    an identical check, and (b) embed register/flag liveness into each rule so
    the inlined check saves only what is live.  The dynamic fallback
    instruments every load and store in a block with conservative
    save/restore, and recognizes canary stores/checks locally. *)

type liveness_mode =
  | Live_full  (** use static liveness (JASan-hybrid full) *)
  | Live_none  (** conservative save/restore (JASan-hybrid base) *)

(** Sanitizer runtime shared with the baseline sanitizers: shadow state,
    allocator interposition and the check primitive. *)
module Rt : sig
  type t

  val create : unit -> t
  val shadow : t -> Shadow.t

  val attach : t -> Jt_vm.Vm.t -> unit
  (** Interpose on the allocator (redzones + poisoning), like ASan's
      LD_PRELOADed allocator.  Also binds {!check}'s counting to the
      calling domain's {!Jt_metrics.Metrics.Counters} record: attach on
      the domain that runs the machine. *)

  val on_alloc_event :
    t ->
    report:(kind:string -> addr:int -> unit) ->
    Jt_vm.Alloc.event ->
    unit
  (** The shadow maintenance [attach] installs, exposed so property
      tests can drive a bare allocator without a VM.  Frees poison
      exactly the block's payload and record it under its allocation ID
      until the allocator retires it from quarantine; bad frees are
      reported as ["double-free"] or ["invalid-free"]. *)

  val check : t -> Jt_vm.Vm.t -> addr:int -> len:int -> is_store:bool -> unit
  (** Report a violation if any byte of the range is poisoned, and count
      the check in the counters record bound by the last {!attach} (the
      creating domain's before any). *)

  val poison_canary : t -> Jt_vm.Vm.t -> slot_disp:int -> unit
  (** Poison the canary slot at [fp + slot_disp] (current frame). *)

  val unpoison_canary : t -> Jt_vm.Vm.t -> slot_disp:int -> unit
end

val redzone_bytes : int

val is_frame_access : Jt_isa.Insn.mem -> bool
(** Constant-offset [sp]/[fp] addressing: protected at frame granularity
    by the canary policy, so not individually checked. *)

val is_pcrel : Jt_isa.Insn.mem -> bool
(** PC-relative operands address static data and need no check. *)

(** {2 Check elision}

    The static pass assigns every load/store to exactly one claim — the
    reason it does or does not carry a shadow check.  Claims are computed
    in a fixed priority order: canary exemption, pc-relative, frame
    policy, SCEV coverage, dominating check.  [Dom_elided] is the
    analysis-driven elision: the {!Jt_analysis.Avail} must-analysis
    names, for each available key, the check that made it available. *)
type claim =
  | Exempt_canary  (** canary-handling access, never instrumented *)
  | Pcrel  (** pc-relative static data *)
  | Policy_frame
      (** constant [sp]/[fp] offset, covered by the canary policy *)
  | Scev_covered  (** subsumed by a hoisted SCEV range check *)
  | Dom_elided of int
      (** one identical, register-stable access is checked on every path
          to this one; the payload is that access's address, itself
          [Checked].  A key checked at different accesses on different
          paths leaves the access [Checked]. *)
  | Checked  (** none of the above: gets a shadow check *)

val claim_name : claim -> string

type fn_report = {
  er_fn : int;  (** function entry *)
  er_claims : (int * claim) list;
      (** one entry per load/store, in block/instruction order *)
}

val elision_report :
  ?hoist_scev:bool ->
  ?skip_frame:bool ->
  ?exempt_canary:bool ->
  ?elide:bool ->
  ?cross_call:bool ->
  Janitizer.Static_analyzer.t ->
  fn_report list
(** The per-function elision decisions the static pass would make, for
    the CLI fact dump and the differential tests.  All flags default to
    [true], matching {!create}'s defaults.
    @raise Invalid_argument if two passes claim the same access — the
    overlap regression the plan guards against. *)

val create :
  ?liveness:liveness_mode ->
  ?hoist_scev:bool ->
  ?skip_frame_accesses:bool ->
  ?exempt_canary:bool ->
  ?clean_calls:bool ->
  ?elide:bool ->
  ?cross_call:bool ->
  unit ->
  Janitizer.Tool.t * Rt.t
(** A fresh JASan instance.  One instance per program run: the runtime
    state (shadow memory) is not reusable across processes.  The returned
    {!Rt.t} is exposed for tests and metrics.

    The three flags ablate static-pass design choices (all default on):
    [hoist_scev] replaces per-iteration checks of provably-bounded loops
    with one preheader range check; [skip_frame_accesses] elides checks
    on constant-offset frame slots (covered by the canary policy);
    [exempt_canary] suppresses checks on the canary-handling accesses
    themselves — turning it off makes the epilogue's own canary read
    trip the poisoned slot, demonstrating why canary analysis is a
    soundness requirement and not an optimization.

    [clean_calls] (default false) routes every check through a
    full-context-switch clean call instead of inlined meta-instructions —
    the DynamoRIO default that section 4.1.1 explicitly engineers away
    with hand-written inline assembly; useful as an ablation.

    [elide] (default true) enables the analysis-driven elision
    (dominating-check elimination, and the address keys the DBT's
    trace-spine pass reads); turn it off for the differential safety
    harness's baseline.

    [cross_call] (default true) lets dominating-check claims survive
    direct calls whose resolved callees are provably barrier-free (no
    transitive syscall or canary touch — the only ways shadow state can
    change) and leave the claim's key registers unclobbered, per the
    {!Jt_analysis.Interproc} summaries over the CPA-resolved call graph.
    Only applies to modules with reliable calling conventions; the DBT
    trace layer stays conservative either way. *)

val tag :
  ?liveness:liveness_mode ->
  ?hoist_scev:bool ->
  ?skip_frame_accesses:bool ->
  ?exempt_canary:bool ->
  ?elide:bool ->
  ?cross_call:bool ->
  unit ->
  string
(** The {!Janitizer.Tool.t_tag} of {!create} with these options:
    ["jasan+elide"] by default, ["jasan"] with only [elide] off.  It
    leaves out [clean_calls], which changes no rule. *)

val static_meta :
  Rt.t ->
  elide:bool ->
  Jt_rules.Rules.t ->
  at:int ->
  insn:Jt_isa.Insn.t ->
  len:int ->
  Jt_dbt.Dbt.meta option
(** Interpret one static rewrite rule anchored at instruction [insn]
    (address [at], byte length [len], both in run-time coordinates) into
    the meta operation the hybrid DBT would inline there.  Exposed for
    the AOT emitter ([Jt_emit]), which executes the very same metas at
    its materialized instrumentation sites: identical actions, identical
    cycle costs, so elision decisions carry over bit-for-bit. *)

(** Rule identifiers emitted by the static pass (for tests). *)
module Ids : sig
  val mem_check : int
  val poison_canary : int
  val unpoison_canary : int
  val range_check : int
  val invariant_check : int
end
