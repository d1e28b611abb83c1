open Jt_codec.Codec

let magic = "JELF1"

(* A tag is its constructor's index here. *)
let kind_tags = Objfile.[| Exec_nonpic; Exec_pic; Shared |]
let symtab_tags = Objfile.[| Full; Exported_only; Stripped |]

let feature_tags =
  Objfile.[| Cxx_exceptions; Fortran_runtime; Handwritten_asm; Breaks_calling_convention |]

let sym_kind_tags = Symbol.[| Func; Object |]

let write (m : Objfile.t) =
  encode ~magic (fun b ->
      W.str U32 b m.name;
      W.enum kind_tags b m.kind;
      W.enum symtab_tags b m.symtab_level;
      W.list U32 (W.enum feature_tags) b m.features;
      W.list U32 (W.str U32) b m.deps;
      W.option W.u32 b m.entry;
      W.list U32
        (fun b (s : Section.t) ->
          W.str U32 b s.name;
          W.u32 b s.vaddr;
          W.bool b s.is_code;
          W.str U32 b s.data;
          W.list U32
            (fun b (a, l) ->
              W.u32 b a;
              W.u32 b l)
            b s.truth_code_ranges)
        b m.sections;
      W.list U32
        (fun b (s : Symbol.t) ->
          W.str U32 b s.name;
          W.u32 b s.vaddr;
          W.u32 b s.size;
          W.enum sym_kind_tags b s.kind;
          W.bool b s.exported)
        b m.symbols;
      W.list U32
        (fun b (r : Reloc.t) ->
          W.u32 b r.offset;
          match r.kind with
          | Reloc.Rel_relative v ->
            W.u8 b 0;
            W.u32 b v
          | Reloc.Rel_got n ->
            W.u8 b 1;
            W.str U32 b n)
        b m.relocs;
      W.list U32
        (fun b (i : Objfile.import) ->
          W.str U32 b i.imp_sym;
          W.u32 b i.imp_got;
          W.option W.u32 b i.imp_plt)
        b m.imports;
      W.list U32 (W.str U32) b m.exports)

(* The [~min] of each list is the smallest encoding of one element. *)
let read =
  decode ~magic (fun r ->
      let name = R.str U32 r in
      let kind = R.enum kind_tags r in
      let symtab_level = R.enum symtab_tags r in
      let features = R.list U32 ~min:1 (R.enum feature_tags) r in
      let deps = R.list U32 ~min:4 (R.str U32) r in
      let entry = R.option R.u32 r in
      let sections =
        R.list U32 ~min:17
          (fun r ->
            let name = R.str U32 r in
            let vaddr = R.u32 r in
            let is_code = R.bool r in
            let data = R.str U32 r in
            let truth =
              R.list U32 ~min:8
                (fun r ->
                  let a = R.u32 r in
                  (a, R.u32 r))
                r
            in
            Section.make ~truth_code_ranges:truth ~name ~vaddr ~is_code data)
          r
      in
      (* [Objfile.section_at] and the disassembler's section cache
         assume every address lies in at most one section. *)
      let spans =
        List.filter (fun s -> Section.size s > 0) sections
        |> List.sort (fun (a : Section.t) b -> compare a.vaddr b.vaddr)
      in
      let rec disjoint = function
        | (a : Section.t) :: (b :: _ as rest) ->
          if Section.end_vaddr a > b.vaddr then
            R.fail r
              (Printf.sprintf "sections %s and %s overlap" a.name b.name);
          disjoint rest
        | _ -> ()
      in
      disjoint spans;
      let symbols =
        R.list U32 ~min:14
          (fun r ->
            let name = R.str U32 r in
            let vaddr = R.u32 r in
            let size = R.u32 r in
            let kind = R.enum sym_kind_tags r in
            let exported = R.bool r in
            Symbol.make ~size ~exported ~kind ~name vaddr)
          r
      in
      let relocs =
        R.list U32 ~min:9
          (fun r ->
            let offset = R.u32 r in
            match R.u8 r with
            | 0 -> Reloc.relative ~offset (R.u32 r)
            | 1 -> Reloc.got ~offset (R.str U32 r)
            | _ -> R.fail r "bad reloc")
          r
      in
      let imports =
        R.list U32 ~min:9
          (fun r ->
            let imp_sym = R.str U32 r in
            let imp_got = R.u32 r in
            let imp_plt = R.option R.u32 r in
            { Objfile.imp_sym; imp_got; imp_plt })
          r
      in
      let exports = R.list U32 ~min:4 (R.str U32) r in
      {
        Objfile.name;
        kind;
        sections;
        symbols;
        symtab_level;
        relocs;
        imports;
        exports;
        deps;
        entry;
        features;
      })

let save ~dir (m : Objfile.t) =
  let path = Filename.concat dir (m.name ^ ".jelf") in
  write_file_atomic path (write m);
  path

let load path = read (read_file path)
