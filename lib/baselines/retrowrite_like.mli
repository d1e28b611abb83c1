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

val closure :
  registry:Jt_obj.Objfile.t list -> main:string -> Jt_obj.Objfile.t list
(** The static ("ldd") dependency closure, dependencies first. *)

val applicability : registry:Jt_obj.Objfile.t list -> main:string -> refusal option
(** [None] when the rewriter accepts the whole closure. *)

val run :
  ?fuel:int -> registry:Jt_obj.Objfile.t list -> main:string -> unit ->
  (Jt_vm.Vm.result, refusal) result
(** [Error r] when the rewriter refuses the binary (the ✗ entries of
    Figure 7). *)
