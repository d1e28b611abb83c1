(** Ahead-of-time emitter: materialize a tool's checks as real
    instructions in a new JELF object (section 3's "static rewriter"
    deployment mode, Zipr-style).

    Where the hybrid DBT inlines meta-operations at translation time, the
    emitter bakes the very same operations into the binary ahead of time:

    - every statically recovered instruction is copied, in address order,
      into a fresh high [.emit.text] section; instructions that carry
      rewrite rules are prefixed with a 2-byte [syscall emit_site] whose
      run-time handler executes exactly the metas the DBT would have
      inlined (same actions, same cycle costs — the PR 5/6 claim
      partition and its elisions carry over bit for bit);
    - *pinned* addresses — the entry point, function symbols (exports,
      PLT lazy stubs, [_init]), discovered function entries, jump-table
      targets and code-pointer-scan hits — keep their old addresses: the
      original bytes are patched with a 2-byte [syscall emit_pin] that
      hops to the instruction's new home.  All code pointers anywhere in
      data, the GOT, jump tables or violation reports therefore keep
      their old values, which is what makes the rewrite trampoline-free
      and relocation/import fixups unnecessary: no metadata moves;
    - direct branches inside the copied code are re-targeted to the new
      copies, and PC-relative operands are re-displaced so they keep
      addressing the *old* absolute location (symbolization of
      code/data-ambiguous references reduces to this invariant: data
      references never move, code references are remapped only when the
      target's new location is known).

    When symbolization would be unsound the emitter refuses with a typed
    {!refusal} instead of emitting a silently wrong binary — the same
    contract as [Retrowrite_like.applicability].

    The emitted module runs directly on the plain VM
    ([Janitizer.Driver.run_plain]) with zero translation overhead: the
    only cycle deltas against an uninstrumented run are the materialized
    check costs and one direct-jump charge per pin hop, an identity the
    differential bench asserts exactly. *)

type tool = Asan of { elide : bool } | Cfi of Jt_jcfi.Jcfi.config

val tool_tag : tool -> string
(** Short configuration tag stamped into the emitted map section: the
    static pass's {!Janitizer.Tool.t_tag}.  Distinct configurations get
    distinct tags, so the tag also keys the shared-object cache
    ({!emit_program}). *)

(** Why a module cannot be soundly emitted.  The first payload is always
    the module name. *)
type refusal =
  | Unsupported_feature of string * string
      (** compiled-in trait the rewriter cannot handle (C++ exception
          tables, Fortran runtime) — mirrors RetroWrite's refusals *)
  | Overlapping_code of string * int
      (** two recovered instructions overlap at this address: the
          recovered stream has no consistent linear layout *)
  | Unsound_fallthrough of string * int
      (** the instruction at this address can fall through, but its
          successor was not recovered: relocating it would change what
          executes next *)
  | Pin_collision of string * int * int
      (** two pinned targets less than 2 bytes apart: the second pin's
          patch would clobber the first *)
  | Pin_unsafe of string * int
      (** a pin is requested at an address where patching 2 bytes is not
          provably safe: unrecovered address, or the patch would spill
          into bytes that are not recovered instructions (e.g. inline
          jump-table data) *)

val refusal_to_string : refusal -> string

(** {1 The emitted map}

    Emitted objects are self-describing: an [.emit.map] data section
    records the old-to-new instruction layout and the pin set, so the
    emit runtime needs only the module itself plus its rule file. *)

val text_section_name : string
(** [".emit.text"]. *)

val map_section_name : string
(** [".emit.map"]. *)

type map_insn = {
  mi_old : int;  (** link-time address of the original instruction *)
  mi_new : int;
      (** link-time address of its relocated home: the site prefix when
          [mi_site], the instruction copy itself otherwise *)
  mi_site : bool;  (** preceded by a materialized instrumentation site *)
}

type emap = {
  em_digest : string;
      (** content digest of the {e original} module — the emit runtime
          validates the rule file against this, not against the emitted
          object *)
  em_tool : string;  (** {!tool_tag} of the emitting configuration *)
  em_text : int;  (** link-time base of [.emit.text] *)
  em_insns : map_insn array;  (** in old-address order *)
  em_pins : (int * int) array;
      (** (pinned old address, new target) — the target is the [mi_new]
          of the pinned instruction *)
}

val encode_map : emap -> string
(** The map as a "JEM1" artifact in the sealed {!Jt_codec.Codec.seal}
    frame. *)

val decode_map : string -> emap
(** @raise Jt_codec.Codec.Decode_error (format ["JEM1"]) on any
    malformed map: a flipped bit or a truncation fails the frame. *)

val read_map : Jt_obj.Objfile.t -> emap option
(** The decoded [.emit.map] of an emitted object, [None] for ordinary
    modules.  Decoded once per module object ({!Jt_obj.Objfile.Memo}):
    {!emit_module} hands over the map it has just encoded, and an object
    read from bytes, or a [{ m with ... }] copy, is decoded and its seal
    checked on its first request.
    @raise Jt_codec.Codec.Decode_error as {!decode_map} (and again on
    every later request: a failed decode is not kept). *)

(** {1 Emission} *)

val emit_module :
  tool:tool ->
  rules:Jt_rules.Rules.file ->
  Janitizer.Static_analyzer.t ->
  (Jt_obj.Objfile.t, refusal) result
(** Rewrite the analyzed module ([sa_mod]) using its analysis, which
    this function does not recompute.  [rules] must be the static
    pass's rule file for this exact build of the module
    ({!Jt_rules.Rules.file.rf_digest} is checked when present).  The result keeps the module's name, kind,
    symbols, relocations, imports, exports, entry point and dependencies
    unchanged — only section contents differ (pin patches) and two
    sections are appended ([.emit.text], [.emit.map]) — so it substitutes
    transparently into a registry.
    @raise Invalid_argument if [rules] belongs to a different build. *)

type program = {
  p_tool : tool;
  p_main : string;
  p_registry : Jt_obj.Objfile.t list;
      (** the input registry with emitted objects substituted in place
          (plus the emitted [ld.so], which the loader would otherwise
          replace with its synthetic original) *)
  p_rules : (string * Jt_rules.Rules.file) list;
      (** static rule files, needed again at run time by {!attach} *)
  p_emitted : string list;  (** emitted module names, sorted *)
  p_skipped : (string * refusal) list;
      (** registry modules outside the static closure (dlopen-only
          plugins) that could not be emitted; they stay in the registry
          unrewritten — exactly the dynamic-fallback gap of footnote 1,
          except here the gap is simply unchecked *)
}
(** An emitted program, ready to {!run}. *)

val emit_program :
  ?store:Jt_ir.Store.t ->
  tool:tool ->
  registry:Jt_obj.Objfile.t list ->
  main:string ->
  unit ->
  (program, string * refusal) result
(** Emit a whole program: the main executable's static closure must emit
    (any refusal fails the program, naming the module); registry modules
    reachable only via [dlopen] are emitted opportunistically.  Each
    module is analyzed once ({!Janitizer.Static_analyzer.analyze}
    through [store] when given), and that analysis feeds both the tool's
    static pass and {!emit_module}.

    A shared object ([ld.so] included) is analyzed and emitted once per
    process and {!tool_tag}: its rule file and its emission (or refusal)
    are kept in {!Jt_ir.Rewrite_cache} under its content digest, and
    every later program that links it reuses both without analyzing it
    again.  Executables are analyzed and emitted on every call. *)

(** {1 The emit runtime} *)

type run_outcome = {
  ro_outcome : Janitizer.Driver.outcome;
  ro_sites : int;
  ro_pins : int;
  ro_check_cost : int;
}

val run : ?fuel:int -> program -> run_outcome
(** Execute an emitted program on the plain VM — no DBT anywhere.

    The emit runtime keeps a per-module table
    ({!Jt_loader.Loader.track}) whose row, for every loaded module
    carrying an [.emit.map] (read through {!read_map}, so once per module
    object), validates the rule file's digest and holds the module's
    site and pin tables, built once per module object.  Each [emit_site]
    and [emit_pin] syscall is bound when the VM decodes it, through
    [Vm.make ~instrument]: a site's rules (read through the file's
    index, {!Jt_rules.Rules.index}) become its meta list
    ([Jasan.static_meta] / [Jcfi.static_meta], in run-time coordinates)
    and a pin's target is resolved, so an executed site does no lookup.
    Modules without a map get no sites — under a [Cfi] configuration
    they still receive a runtime-constructed target table, like the
    hybrid's dynamic fallback.  Unloading a module drops its row and its
    target table.  A site syscall charges the metas' summed cost in
    place of its own syscall cost; a pin hop charges one direct-jump
    cost.  Both are counted in the outcome.
    @raise Failure if an emitted module's rule file is missing or its
    digest does not match the map (at load), or if an executed site's
    anchor does not decode or has no check (when the site is decoded);
    {!Jt_codec.Codec.Decode_error} if a map is corrupt.

    The observable identities against other arms, asserted by [bench emit]:

    - [ro_outcome.o_result.r_icount - ro_sites - ro_pins] equals the
      hybrid DBT's (and the native baseline's) instruction count;
    - cycles exceed a baseline run with the same allocator policy by
      exactly [ro_check_cost + ro_pins] — zero translation overhead. *)
