(** The run-time loader (the [ld.so] analog).

    Loads a main executable and the transitive closure of its declared
    dependencies, assigns load bases (position-dependent executables at
    their link base, PIC modules at successive slots), copies sections
    into memory, applies relocations, initializes GOT slots (eager imports
    resolved immediately, lazy imports pointed at their PLT lazy stubs),
    and supports run-time {!dlopen}.

    Tools keep their per-module runtime state in a {!table}: it gains a
    row when a module loads and loses it when the module unloads, and is
    searched by run-time address.  This is where Janitizer's dynamic
    modifier loads a module's rewrite rules and adjusts their addresses
    by the load base (Figure 5a of the paper). *)

open Jt_obj

type loaded = {
  lmod : Objfile.t;
  base : int;  (** load base; [0] for position-dependent modules *)
  load_order : int;  (** position in load order, never reused *)
}

val runtime_addr : loaded -> int -> int
(** Link-time address to run-time address. *)

val link_addr : loaded -> int -> int
(** Run-time address back to link-time address. *)

val contains : loaded -> int -> bool
(** Does the run-time address fall in one of the module's sections? *)

val in_code : loaded -> int -> bool
(** Does the run-time address fall in an executable section? *)

type t

exception Load_error of string

val create : mem:Jt_mem.Memory.t -> registry:Objfile.t list -> t
(** [registry] is the simulated filesystem of available binaries.  A
    synthetic [ld.so] module providing [__dl_resolve] is added
    automatically if the registry does not define one. *)

val mem : t -> Jt_mem.Memory.t

val on_load : t -> (loaded -> unit) -> unit
(** Register a module-load callback.  Callbacks registered before
    {!load_main} fire for startup modules too. *)

val load_main : t -> string -> loaded
(** Load the main executable and its static dependency closure (the "ldd"
    set).  @raise Load_error on unknown modules or unresolved imports. *)

val dlopen : t -> string -> loaded
(** Load a module at run time (no-op returning the existing handle if
    already loaded). *)

val dlclose : t -> string -> bool
(** Unload a run-time-loaded module: its address range is retired and
    every {!table}'s row for it is dropped.  Returns false (and does
    nothing) for modules of the startup closure, which stay pinned like
    ELF [-z nodelete].  A PIC module's address slot is never reused, so
    stale pointers into it fault into unmapped space.  A non-PIC module
    always maps at its link addresses (base [0]), so the next non-PIC
    module linked at the same addresses reuses its range: a stale
    pointer then lands in the new module's code. *)

val loaded_modules : t -> loaded list
(** In load order. *)

val module_at : t -> int -> loaded option
(** Address-range lookup: which module maps this run-time address?
    Served from a sorted interval index over loaded section spans
    (binary search, maintained on load/dlclose), so it is cheap enough
    to sit on the DBT's block-translation path. *)

val find_loaded : t -> string -> loaded option

(** {1 Per-module state}

    A tool's per-module runtime state (rule tables, CFI target tables,
    instrumentation-site maps) lives exactly as long as its module is
    mapped.  Dropping a module's row is all an unload costs, because the
    state is kept per module (footnote 2 of the paper). *)

type 'a table

val table : unit -> 'a table
(** An empty table, tracking no loader yet. *)

val track : t -> 'a table -> (loaded -> 'a option) -> unit
(** [track loader tbl f] calls [f] on every module [loader] loads from
    now on and keeps the row [f] returns ([None]: no row), until the
    module is dlclosed.  Track before {!load_main} to see the startup
    modules; rows are added in the order {!on_load} callbacks run. *)

val find : 'a table -> int -> 'a option
(** The row of the module mapping this run-time address ({!module_at}
    plus one lookup); [None] outside every module, for a module without
    a row, and for a table that tracks no loader. *)

val entries : 'a table -> (loaded * 'a) list
(** The rows of the modules now mapped, newest load first. *)

val resolve_symbol : t -> string -> (loaded * Symbol.t) option
(** Flat-namespace lookup of an exported symbol, in load order. *)

val resolve_plt_index : t -> caller_pc:int -> index:int -> int
(** Lazy-binding resolution: resolve the [index]-th PLT import of the
    module containing [caller_pc], patch its GOT slot, and return the
    run-time target address.  @raise Load_error if unresolvable. *)

val entry_point : t -> int
(** Run-time entry address of the main executable. *)

val init_entries : t -> int list
(** Run-time addresses of the [_init] functions of all startup modules,
    in dependency-first order (to be run before the entry point). *)

val ld_so : Objfile.t
(** The synthetic [ld.so]: exports [__dl_resolve], whose body performs the
    resolve syscall and then — exactly as the paper's section 4.2.3
    describes of real lazy binding — transfers to the resolved function
    with a [ret]. *)
