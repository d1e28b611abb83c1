(** The security-tool plugin interface.

    A custom security technique plugs into Janitizer with two passes
    (section 3.4.3): a static pass with whole-CFG visibility that compiles
    its decisions into rewrite rules, and a dynamic fallback pass that
    works one basic block at a time on code the static analyzer never saw.
    [t_setup] runs once per process, before execution (shadow-state
    initialization, allocator interposition, loader subscriptions).

    A tool reads analysis facts from the {!Static_analyzer.t} it is
    given and persists nothing of its own: the IR store holds only what
    the analyzer computed, so a warm run re-derives the tool's results
    (claims, per-site sets) from the same facts. *)

type t = {
  t_name : string;
  t_setup : Jt_vm.Vm.t -> unit;
  t_static : Static_analyzer.t -> Jt_rules.Rules.file;
  t_client : Jt_dbt.Dbt.client;
  t_on_load :
    Jt_vm.Vm.t ->
    Jt_loader.Loader.loaded ->
    Jt_rules.Rules.file option ->
    unit;
      (** Called at every module load with the module's rewrite-rule file
          when the static analyzer produced one: tools maintaining
          per-module runtime structures (e.g. CFI target tables) populate
          them here, falling back to load-time analysis when no static
          hints exist (section 4.2.2). *)
}

val no_on_load :
  Jt_vm.Vm.t -> Jt_loader.Loader.loaded -> Jt_rules.Rules.file option -> unit

val noop_marks : Static_analyzer.t -> Jt_rules.Rules.t list -> Jt_rules.Rules.t list
(** [noop_marks sa rules] appends a no-op rule for every basic block of
    the recovered CFG that carries no rule in [rules], implementing the
    statically-inspected-code marking of section 3.3.4.  Tools should
    pass their static pass output through this before serializing. *)
