(** The process-wide cache of each shared object's static rewrite
    products (DESIGN.md §14).

    Section 3.3.1 of the paper analyzes a shared library once and reuses
    its rules in every program that loads it.  So does every consumer of
    this table: the hybrid driver keeps a shared object's rule file, the
    emitter its rule file and emitted JELF, the BinCFI-like baseline
    what it derives from its disassembly, the RetroWrite-like baseline
    its site plan.

    - {b Key}: the module's content digest ({!Jt_obj.Objfile.digest},
      which covers every field a tool reads), the artifact kind and the
      tool tag.
    - {b Admission}: only modules of kind [Shared] ([ld.so] included);
      for any other module {!find_or_compute} just computes.  Executables
      are per-program and would only grow the table.
    - {b Values} must be immutable and independent of any one run: no
      [Lazy.t] (forcing one from two domains races) and no
      [Static_analyzer.t].
    - {b Mechanism}: one {!Memo} of 64 entries, shared by every kind:
      LRU eviction, single-flight across [Jt_pool] domains. *)

type 'a kind
(** One kind of artifact, carrying values of type ['a]. *)

val kind : string -> 'a kind
(** A new kind under a name unique in the process.
    @raise Invalid_argument if the name is taken. *)

val find_or_compute :
  'a kind -> tool:string -> Jt_obj.Objfile.t -> (unit -> 'a) -> 'a
(** For a shared object, the cached value under (digest, kind, [tool]),
    computed on the first request in the process (concurrent first
    requests compute once); for any other module, [compute ()]. *)
