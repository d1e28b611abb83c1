(** JELF modules: the binary container format of the simulated system.

    A module is either a position-dependent executable (linked at a fixed
    base), a position-independent executable, or a shared object (always
    PIC).  Its sections hold raw encoded bytes; symbol visibility is
    controlled by {!symtab_level} exactly as the paper needs: full symbol
    tables, export-only dynamic symbols, or fully stripped. *)

type kind = Exec_nonpic | Exec_pic | Shared

type symtab_level = Full | Exported_only | Stripped

(** Traits of how the module was "compiled"; used by baseline tools'
    applicability predicates (e.g. RetroWrite-style rewriting refuses
    C++-exception code) and by the special cases of sections 4.1.2 and
    4.2.3 of the paper. *)
type feature =
  | Cxx_exceptions
  | Fortran_runtime
  | Handwritten_asm
  | Breaks_calling_convention  (** ipa-ra-style convention violations *)

type import = {
  imp_sym : string;
  imp_got : int;  (** link-time vaddr of the GOT slot for this symbol *)
  imp_plt : int option;  (** link-time vaddr of the PLT stub, if any *)
}

type t = {
  name : string;
  kind : kind;
  sections : Section.t list;
  symbols : Symbol.t list;  (** ground-truth symbol list (all of them) *)
  symtab_level : symtab_level;
  relocs : Reloc.t list;
  imports : import list;
  exports : string list;
  deps : string list;  (** DT_NEEDED: statically declared dependencies *)
  entry : int option;  (** link-time entry address, for executables *)
  features : feature list;
}

val is_pic : t -> bool

val visible_symbols : t -> Symbol.t list
(** Symbols a binary tool can actually see, given [symtab_level]. *)

val exported_symbols : t -> Symbol.t list
(** Exported symbols are visible at every symtab level (they live in the
    dynamic symbol table). *)

val find_symbol : t -> string -> Symbol.t option
(** Looks through the ground-truth table (loader's view). *)

val find_export : t -> string -> Symbol.t option

val section_at : t -> int -> Section.t option
(** Section containing link-time address: the only one, since sections
    are disjoint ({!Jelf.read} rejects an overlap, and no builder makes
    one). *)

val find_section : t -> string -> Section.t option
val code_sections : t -> Section.t list

val byte_at : t -> int -> int option
(** Byte at a link-time virtual address, [None] if unmapped. *)

val code_bounds : t -> (int * int) option
(** Smallest [(lo, hi)] covering all code sections (link-time, [hi]
    exclusive). *)

val has_feature : t -> feature -> bool

val digest : t -> string
(** 16-byte MD5 over every field of the module a tool reads: identity,
    kind, entry, sections (bytes and layout), symbols, symtab level,
    relocations, imports, exports, dependencies and features (not the
    sections' ground-truth code ranges, which only evaluation reads).  Keys derived artifacts
    (the IR store, rule files, the shared-object rewrite cache): two
    modules that differ in anything a tool reads digest differently, so
    a stale or foreign artifact is detected instead of applied.
    Computed once per module object ({!Memo}); a [{ m with ... }] copy
    digests afresh. *)

(** Values derived from a module object, kept beside it
    ({!Jt_derived.Derived}): keyed by the object's identity, dropped
    with it, one table per domain. *)
module Memo : sig
  type module_ := t
  type 'a t

  val create : unit -> 'a t
  val find_or_add : 'a t -> module_ -> (module_ -> 'a) -> 'a
  val add : 'a t -> module_ -> 'a -> unit
end

val pp : Format.formatter -> t -> unit
