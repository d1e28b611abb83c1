(** Per-module valid-target tables for forward-edge CFI (section 4.2.1).

    For statically analyzed modules the tables come from the static
    analyzer's hints: function entries (with extents), exported entries,
    address-taken functions (sliding-window scan refined to function
    boundaries) and jump-table targets.  For modules first seen at run
    time, {!of_module_runtime} rebuilds what it can on the spot: symbol
    tables when present, otherwise exported symbols plus the raw scan —
    the weaker Lockdown-style fallback. *)

type t = {
  tg_module : Jt_loader.Loader.loaded;
  funcs : (int, int) Hashtbl.t;  (** run-time entry -> byte size *)
  exports : (int, unit) Hashtbl.t;
  addr_taken : (int, unit) Hashtbl.t;
  jump_targets : (int, unit) Hashtbl.t;
  site_sets : (int, int list) Hashtbl.t;
      (** run-time call-site address -> resolved run-time target entries
          (sorted), from the code-pointer provenance analysis; a site
          with no entry resolved to Top *)
  precise : bool;  (** built from static hints *)
}

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

val jump_ok : t -> fn_entry:int option -> int -> bool
(** JCFI's indirect-jump policy: within the same function, a recorded
    jump-table target, or a function entry of the module (tail calls).
    With [fn_entry = None] (no static information) this degrades to "any
    known function entry or jump target". *)

(** {1 Target-set sizes, for AIR} *)

val n_intra_call : t -> int
val n_inter : t -> int
val n_jump_targets_of_fn : t -> fn_entry:int option -> int
val code_bytes : t -> int

val of_module_runtime : Jt_loader.Loader.loaded -> t
(** Runtime construction for modules without static hints. *)
