(** Indirect-edge-resolved call graph over one module's recovered CFG.

    Direct-call and tail-jump edges come straight from the instructions;
    indirect-call edges are supplied by an external resolver — in
    practice the code-pointer provenance analysis ([Jt_analysis.Cpa]),
    whose per-site target sets are sound over-approximations.  A site
    the resolver cannot bound is recorded in {!unresolved_sites}
    instead of growing edges to every entry; consumers must treat such
    a site as "may call anything" (the Top-degradation contract). *)

type edge_kind = Direct | Tail | Indirect

type edge = {
  e_caller : int;  (** entry of the calling function *)
  e_site : int;  (** call-site instruction address *)
  e_callee : int;  (** entry of the callee *)
  e_kind : edge_kind;
}

type t

val build : ?resolve:(int -> int list option) -> Cfg.t -> t
(** [resolve site] returns the resolved target entries of the indirect
    call at [site], or [None] when the site is unbounded (Top).  The
    default resolver knows nothing: every indirect site is unresolved,
    which reproduces the direct-only call graph. *)

val edges : t -> edge list
(** All edges, in (function, block, instruction) discovery order. *)

val succs : t -> int -> (int * edge_kind) list
(** Distinct callees of one function, in first-seen order. *)

val unresolved_sites : t -> int list
(** Indirect call sites with no target set (Top).  Read only by
    test_cpa "analysis" "callgraph". *)

val kind_name : edge_kind -> string
