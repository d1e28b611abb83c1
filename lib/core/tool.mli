(** The security-tool plugin interface.

    A custom security technique plugs into Janitizer with two passes
    (section 3.4.3): a static pass with whole-CFG visibility that compiles
    its decisions into rewrite rules, and a dynamic fallback pass that
    works one basic block at a time on code the static analyzer never saw.
    [t_setup] runs once per process, before execution (shadow-state
    initialization, allocator interposition, per-module tables).

    A tool reads analysis facts from the {!Static_analyzer.t} it is
    given and persists nothing of its own: the IR store holds only what
    the analyzer computed, so a warm run re-derives the tool's results
    (claims, per-site sets) from the same facts. *)

type t = {
  t_setup :
    Jt_vm.Vm.t -> rules_for:(string -> Jt_rules.Rules.file option) -> unit;
      (** Runs before {!Jt_vm.Vm.boot}.  [rules_for] names the run's
          rewrite-rule file of a module the static analyzer saw: a tool
          with per-module runtime structures (e.g. CFI target tables)
          {!Jt_loader.Loader.track}s them here, falling back to
          load-time analysis for modules without static hints
          (section 4.2.2). *)
  t_static : Static_analyzer.t -> Jt_rules.Rules.file;
  t_tag : string;
      (** Names [t_static]'s configuration: equal tags give equal rule
          files.  {!Driver.analyze_all} reuses a shared object's rule
          file per digest and tag. *)
  t_client : Jt_dbt.Dbt.client;
}

val noop_marks : Static_analyzer.t -> Jt_rules.Rules.t list -> Jt_rules.Rules.t list
(** [noop_marks sa rules] appends a no-op rule for every basic block of
    the recovered CFG that carries no rule in [rules], implementing the
    statically-inspected-code marking of section 3.3.4.  Tools should
    pass their static pass output through this before serializing. *)
