(** A RetroWrite-class baseline: static-only binary rewriting for
    sanitization.

    Symbolization needs relocation information, so it is only applicable
    when the main executable (and everything it links) is
    position-independent; C++ exception tables and Fortran runtimes defeat
    its reassembly.  When applicable, instrumentation is inlined into the
    rewritten binary: per-access checks with intra-procedural liveness,
    canary-granularity stack protection — and zero translation overhead,
    which is why its slowdown is the floor the hybrid aims for.  Coverage
    stops at static code: dynamically loaded or generated code runs
    uninstrumented. *)

(** Why the rewriter refuses a binary. *)
type refusal =
  | Needs_pic of string  (** offending module *)
  | Unsupported_feature of string * string  (** module, feature *)

val applicability : registry:Jt_obj.Objfile.t list -> main:string -> refusal option
(** [None] when the rewriter accepts the whole
    {!Janitizer.Driver.static_closure}. *)

(** {1 Site plans}

    What the rewriter inlines into one module, in link-time addresses
    and independent of any run: binding a plan to a run's JASan runtime
    is all {!run} does per program. *)

type op =
  | Check of { ea : Jt_isa.Insn.mem; len : int; is_store : bool }
      (** shadow check of the access's [len] bytes at [ea] (never
          PC-relative) *)
  | Poison of int  (** poison the canary slot at this frame displacement *)
  | Unpoison of int  (** unpoison it before the canary check load *)

type site = {
  s_addr : int;  (** instruction the op runs before *)
  s_cost : int;  (** cycles charged *)
  s_op : op;
}

val site_plan : Janitizer.Static_analyzer.t -> site array
(** The analyzed module's sites, in application order. *)

val plan : Jt_obj.Objfile.t -> site array
(** {!site_plan} of the module's analysis.  A shared object is analyzed
    and planned once per process ({!Jt_ir.Rewrite_cache}). *)

val run :
  ?fuel:int -> registry:Jt_obj.Objfile.t list -> main:string -> unit ->
  (Jt_vm.Vm.result, refusal) result
(** [Error r] when the rewriter refuses the binary (the ✗ entries of
    Figure 7).  Every rewritable registry module's {!plan} is bound to
    the run's fresh JASan runtime, so the shared objects a program links
    are analyzed once per process, not once per program. *)
