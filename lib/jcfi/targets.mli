(** Per-module valid-target tables for forward-edge CFI (section 4.2.1).

    For statically analyzed modules the tables are the static analyzer's
    hints, read through the rule file's load-time index
    ({!Jt_rules.Rules.index}, shared with the DBT): function entries
    (with extents), exported entries, address-taken functions
    (sliding-window scan refined to function boundaries), jump-table
    targets and per-site target sets.  For modules first seen at run
    time, {!of_module_runtime} writes what it can find on the spot as
    the same hints — symbol tables when present, otherwise exported
    symbols plus the raw scan, the weaker Lockdown-style fallback — and
    indexes them.  Every query takes run-time addresses. *)

(** Rule ids of the target hints ([Jcfi.Ids] re-exports them). *)

val tgt_func : int
(** a function entry; [data.(0)] its byte size *)

val tgt_export : int
val tgt_addr_taken : int
val tgt_jump : int

val site_targets : int
(** one chunk (≤ 4 link addresses) of a call site's resolved target set *)

type counts

type t = private {
  tg_module : Jt_loader.Loader.loaded;
  tg_hints : Jt_rules.Rules.index;
  tg_base : int;  (** run-time minus link address *)
  precise : bool;  (** built from static hints *)
  tg_counts : counts Lazy.t;
  tg_funcs : (int, int) Hashtbl.t Lazy.t;
      (** run-time entry -> size, built on the first {!func_range} *)
}

val of_hints : Jt_loader.Loader.loaded -> Jt_rules.Rules.file -> t
(** The precise table of a module with a rule file, answering from the
    file's index. *)

val inter_module_ok : t -> int -> bool
(** Allowed as the destination of a transfer coming from another module:
    exported or address-taken (the callback refinement of 4.2.3). *)

val intra_call_ok : t -> int -> bool
(** Function entries of this module. *)

val call_ok : t -> site:int -> int -> bool
(** Per-site forward-edge policy.  A precise table consults the site's
    resolved CPA target set; a site without one (Top), and every site of
    an imprecise ([of_module_runtime]) table, degrades soundly to
    {!intra_call_ok}.  Site sets are subsets of the function entries, so
    this policy is never more permissive than any-entry. *)

val site_set : t -> site:int -> int list option
(** The resolved set {!call_ok} would consult, [None] on the degraded
    path.  Imprecise tables never expose one. *)

val n_site_sets : t -> int
(** Call sites with a resolved set.  Read only by test_cpa "analysis"
    "top degradation" and test_rules "index". *)

val jump_ok : t -> fn_entry:int option -> int -> bool
(** JCFI's indirect-jump policy: within the same function, a recorded
    jump-table target, or a function entry of the module (tail calls).
    With [fn_entry = None] (no static information) this degrades to "any
    known function entry or jump target". *)

val func_range : t -> int -> (int * int) option
(** A function whose byte extent holds this address, as [(entry, size)]
    (an extent is at least one byte).  Where extents overlap, the one
    the walk over the function table meets last.  For the dynamic
    fallback's jump policy, which resolves it once per site. *)

(** {1 Target-set sizes, for AIR} *)

val n_entries : t -> int
(** Function entries + exported + address-taken + jump targets, each
    set counted on its own (the [Cfi_table] trace event). *)

val n_intra_call : t -> int
val n_inter : t -> int
val n_jump_targets_of_fn : t -> fn_entry:int option -> int
val code_bytes : t -> int

val of_module_runtime : Jt_loader.Loader.loaded -> t
(** Runtime construction for modules without static hints. *)
