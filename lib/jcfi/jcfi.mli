(** JCFI: hybrid control-flow integrity for binaries (section 4.2).

    Forward edges are validated against per-module hash tables of valid
    targets: indirect calls may target function entries of their own
    module, or exported / address-taken functions of other modules;
    indirect jumps may stay within their function, hit a recovered
    jump-table target, or tail-call a function entry of the module.
    Backward edges use a precise shadow stack.  The lazy-binding
    resolver's ret-as-call in [ld.so] receives a forward check instead of
    a backward check (section 4.2.3).

    The static pass encodes both the instrumentation points and the valid
    target sets as rewrite rules; at module-load time the runtime builds
    its target tables from them, or — for modules without static hints —
    from whatever is available at run time (symbols, exports, raw scan):
    the weaker Lockdown-like fallback. *)

type config = {
  cf_forward : bool;
  cf_backward : bool;  (** shadow stack; off for the Figure 11 ablation *)
}

val default_config : config

val tag : config -> string
(** The {!Janitizer.Tool.t_tag} of {!create} with this configuration. *)

(** Runtime state, exposed for metrics and tests. *)
module Rt : sig
  type t

  type site_kind =
    | Sicall
    | Sijmp of int option
        (** run-time entry of the enclosing function, from static hints *)
    | Sijmp_sym of (int * int) option
        (** dynamic fallback: nearest-symbol [(entry, byte size)] range,
            the weaker byte-granularity policy of footnote 15 *)
    | Sret

  val executed_sites : t -> (int * site_kind) list
  (** Indirect CTIs executed at least once (run-time addresses), the basis
      of the dynamic AIR metric. *)

  val observed_icalls : t -> (int * int) list
  (** Executed (indirect-call site, target) pairs (run-time addresses,
      sentinel transfers excluded) — the dynamic side of the CPA
      refinement-soundness oracle: every observed pair at a site with a
      resolved set must be inside that set. *)

  val targets : t -> Targets.t Jt_loader.Loader.table
  (** Each mapped module's valid-target table, which the checks find by
      address.  Whoever hosts the runtime {!Jt_loader.Loader.track}s
      it: the DBT tool's [t_setup], or the AOT emitter's runtime. *)

  val tables : t -> (Jt_loader.Loader.loaded * Targets.t) list
  (** [Jt_loader.Loader.entries (targets t)]. *)

  val create : config -> t
  (** Bare runtime state, for hosts other than the DBT tool (the AOT
      emitter's runtime).  {!val-create} below wires one of these into a
      [Tool.t]. *)
end

val create : ?config:config -> unit -> Janitizer.Tool.t * Rt.t
(** One instance per program run. *)

val module_targets :
  Jt_loader.Loader.loaded -> Jt_rules.Rules.file option -> Targets.t
(** A loaded module's valid-target table: from its rule file's static
    target hints ([tgt_*] rules), address-adjusted by the load base for
    PIC modules, or without a rule file {!Targets.of_module_runtime}. *)

val static_meta :
  Rt.t ->
  Jt_rules.Rules.t ->
  at:int ->
  insn:Jt_isa.Insn.t ->
  len:int ->
  pic_base:int ->
  Jt_dbt.Dbt.meta option
(** Interpret one static rule anchored at instruction [insn] (run-time
    address [at], byte length [len]) into the meta operation the hybrid
    DBT would inline there; [pic_base] adjusts rule-carried link
    addresses (the enclosing function entry of [ijmp] hints).  Exposed
    for the AOT emitter, whose materialized sites execute the same
    checks at the same cycle costs. *)

module Ids : sig
  val icall : int
  val ijmp : int
  val shadow_push : int
  val ret_check : int
  val resolver_ret : int
  val tgt_func : int
  val tgt_export : int
  val tgt_addr_taken : int
  val tgt_jump : int

  val site_targets : int
  (** Per-call-site resolved target-set chunk (≤ 4 link addresses per
      rule; a site's full set is the union of its chunks). *)
end
