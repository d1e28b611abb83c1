type kind = Exec_nonpic | Exec_pic | Shared

type symtab_level = Full | Exported_only | Stripped

type feature =
  | Cxx_exceptions
  | Fortran_runtime
  | Handwritten_asm
  | Breaks_calling_convention

type import = { imp_sym : string; imp_got : int; imp_plt : int option }

type t = {
  name : string;
  kind : kind;
  sections : Section.t list;
  symbols : Symbol.t list;
  symtab_level : symtab_level;
  relocs : Reloc.t list;
  imports : import list;
  exports : string list;
  deps : string list;
  entry : int option;
  features : feature list;
}

let is_pic m = match m.kind with Exec_nonpic -> false | Exec_pic | Shared -> true

let exported_symbols m = List.filter (fun (s : Symbol.t) -> s.exported) m.symbols

let visible_symbols m =
  match m.symtab_level with
  | Full -> m.symbols
  | Exported_only -> exported_symbols m
  | Stripped -> []

let find_symbol m name =
  List.find_opt (fun (s : Symbol.t) -> String.equal s.name name) m.symbols

let find_export m name =
  List.find_opt (fun (s : Symbol.t) -> String.equal s.name name)
    (exported_symbols m)

let section_at m a = List.find_opt (fun s -> Section.contains s a) m.sections

let find_section m name =
  List.find_opt (fun (s : Section.t) -> String.equal s.name name) m.sections

let code_sections m = List.filter (fun (s : Section.t) -> s.is_code) m.sections

let byte_at m a =
  match section_at m a with
  | Some s -> Some (Section.byte s a)
  | None -> None

let code_bounds m =
  match code_sections m with
  | [] -> None
  | secs ->
    let lo = List.fold_left (fun acc s -> min acc s.Section.vaddr) max_int secs in
    let hi = List.fold_left (fun acc s -> max acc (Section.end_vaddr s)) 0 secs in
    Some (lo, hi)

let has_feature m f = List.mem f m.features

module Memo = Jt_derived.Derived.Make (struct
  type nonrec t = t

  let hash m = Hashtbl.hash m.name
end)

(* Content digest that keys every derived artifact (JTIR, rule files,
   the shared-object rewrite cache).  It covers every field a tool
   reads: the disassembler, analyzer, emitter and baselines read
   symbols, the symtab level, imports, exports, relocations,
   dependencies and features as well as the section bytes, so two
   modules that differ in any of them digest differently, even under
   the same name.  Only the sections' ground-truth code ranges are left
   out: they exist for evaluation, and no tool reads them.  Integers go
   in as fixed-width binary and strings with a length prefix, so the
   encoding is unambiguous.  Computed once per module object. *)
let compute_digest m =
  let b = Buffer.create 4096 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  let tag c = Buffer.add_char b c in
  let list f l =
    int (List.length l);
    List.iter f l
  in
  let opt f = function None -> tag '-' | Some x -> tag '+'; f x in
  str m.name;
  tag (match m.kind with Exec_nonpic -> 'E' | Exec_pic -> 'P' | Shared -> 'S');
  opt int m.entry;
  list
    (fun (s : Section.t) ->
      str s.name;
      int s.vaddr;
      tag (if s.is_code then 'c' else 'd');
      str s.data)
    m.sections;
  list
    (fun (s : Symbol.t) ->
      str s.name;
      int s.vaddr;
      int s.size;
      tag (match s.kind with Func -> 'f' | Object -> 'o');
      tag (if s.exported then 'x' else '-'))
    m.symbols;
  tag
    (match m.symtab_level with Full -> 'F' | Exported_only -> 'X' | Stripped -> 'S');
  list
    (fun (r : Reloc.t) ->
      int r.offset;
      match r.kind with
      | Rel_relative v -> tag 'r'; int v
      | Rel_got n -> tag 'g'; str n)
    m.relocs;
  list
    (fun i ->
      str i.imp_sym;
      int i.imp_got;
      opt int i.imp_plt)
    m.imports;
  list str m.exports;
  list str m.deps;
  list
    (fun f ->
      tag
        (match f with
        | Cxx_exceptions -> 'C'
        | Fortran_runtime -> 'F'
        | Handwritten_asm -> 'A'
        | Breaks_calling_convention -> 'B'))
    m.features;
  Digest.string (Buffer.contents b)

let digests = Memo.create ()
let digest m = Memo.find_or_add digests m compute_digest

let pp ppf m =
  let kind_s =
    match m.kind with
    | Exec_nonpic -> "EXEC"
    | Exec_pic -> "PIE"
    | Shared -> "DYN"
  in
  Format.fprintf ppf "@[<v>module %s (%s)@,%a@]" m.name kind_s
    (Format.pp_print_list Section.pp)
    m.sections
