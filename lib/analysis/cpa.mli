(** Interprocedural code-pointer provenance analysis (CPA).

    Computes, for every indirect call site of a module, a sound
    over-approximation of the set of function entries its operand can
    hold at run time — or Top when the pointer's provenance cannot be
    bounded.  Values live in the finite lattice

        Bot  <=  Entries S  <=  Top

    with S a set of discovered function entries capped at 16
    elements (a larger set snaps to Top).  Sets are seeded wherever a
    tracked entry address is materialized (immediate moves,
    pc-relative/absolute leas, 4-byte loads from in-image code-pointer
    tables with VSA-bounded indices) and flow through register copies
    and the function's entry-sp-relative stack slots.  Direct-call
    argument registers flow into "closed" callees (not exported, not
    address-taken, not jump-table targets, not the program entry) via
    an outer fixpoint.

    The Top-degradation contract: consumers (the per-site CFI policy,
    {!Jt_cfg.Callgraph}, {!Interproc}) must treat an unresolved site as
    "may target any entry" — precision is only ever added on top of the
    sound any-entry baseline, never traded against it.  The contract is
    continuously checked by the runtime refinement oracle in the test
    suite: every dynamically observed indirect-call target must be a
    member of its site's resolved set. *)

type site = {
  cs_fn : int;  (** entry of the enclosing function *)
  cs_site : int;  (** indirect-call instruction address *)
  cs_targets : int list option;
      (** sorted resolved entries; [None] when the site is Top *)
  cs_witness : int;
      (** address of the earliest seeding instruction whose value
          reaches the site (provenance witness); [0] when Top *)
}

type t

val analyze :
  m:Jt_obj.Objfile.t ->
  entries:int list ->
  code_ptrs:int list ->
  jump_table_targets:int list ->
  (Jt_cfg.Cfg.fn * Vsa.t Lazy.t) list ->
  t
(** [analyze ~m ~entries ~code_ptrs ~jump_table_targets fns] runs the
    pass over the demand cone of [fns]: the functions holding an
    indirect call site, plus, transitively, every direct caller of a
    closed member.  Only cone members are solved and only their VSA
    fixpoints (paired with each function) are forced; the sites come
    out exactly as a whole-module solve would give them.
    [entries] are the module's discovered function entries (the tracked
    universe), [code_ptrs] the raw code-pointer-scan hits and
    [jump_table_targets] the recovered jump-table targets — both used
    as address-taken evidence that keeps a function's entry state
    unrefined. *)

val sites : t -> site list
(** All indirect call sites, sorted by site address. *)

val resolve : t -> int -> int list option
(** [resolve t site] is the resolved target set of the indirect call at
    [site], or [None] when the site is Top or unknown — the shape
    expected by {!Jt_cfg.Callgraph.build}'s [resolve]. *)

val site_targets : t -> int -> (int list * int) option
(** Resolved targets plus the provenance witness, for fact dumps. *)

val export : t -> site list
val import : site list -> t
(** Round-trip through the serialized form (the IR's [ir_cpa] field);
    queries on the import answer identically to the original. *)
