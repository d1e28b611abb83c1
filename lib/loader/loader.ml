open Jt_obj

type loaded = { lmod : Objfile.t; base : int; load_order : int }

let runtime_addr l a = l.base + a
let link_addr l a = a - l.base

let contains l a =
  let la = link_addr l a in
  List.exists (fun s -> Section.contains s la) l.lmod.sections

let in_code l a =
  let la = link_addr l a in
  List.exists (fun s -> Section.contains s la) (Objfile.code_sections l.lmod)

exception Load_error of string

let err fmt = Format.kasprintf (fun s -> raise (Load_error s)) fmt

let ld_so =
  let open Jt_asm.Builder in
  build ~name:"ld.so" ~kind:Objfile.Shared ~features:[ Objfile.Handwritten_asm ]
    ~datas:[]
    [
      (* On entry the lazy PLT stub has pushed the import index; the
         resolve syscall replaces it on the stack with the target address,
         and ret transfers there: the loader's ret-as-call pattern. *)
      func ~exported:true "__dl_resolve"
        [ Dsl.syscall Jt_isa.Sysno.resolve; Dsl.ret ];
    ]

type t = {
  mem : Jt_mem.Memory.t;
  registry : (string, Objfile.t) Hashtbl.t;
  mutable loaded : loaded list;  (* reverse load order *)
  mutable callbacks : (loaded -> unit) list;
  mutable unload_callbacks : (loaded -> unit) list;
  mutable next_pic_base : int;
  mutable next_order : int;  (* never reused, unlike the module count *)
  mutable main : loaded option;
  mutable pinned : int;  (* load_order below this cannot be dlclosed *)
  (* Interval index over the run-time address spans of every loaded
     section, sorted by start address, so [module_at] is a binary search
     instead of a scan over all modules.  Rebuilt on load and dlclose
     (rare) to keep the lookup (hot: every block translation) cheap. *)
  mutable index : (int * int * loaded) array;
}

let pic_base0 = 0x1000_0000
let pic_slot = 0x0100_0000

let create ~mem ~registry =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (m : Objfile.t) ->
      if Hashtbl.mem tbl m.name then err "duplicate module %s in registry" m.name;
      Hashtbl.add tbl m.name m)
    registry;
  if not (Hashtbl.mem tbl "ld.so") then Hashtbl.add tbl "ld.so" ld_so;
  {
    mem;
    registry = tbl;
    loaded = [];
    callbacks = [];
    unload_callbacks = [];
    next_pic_base = pic_base0;
    next_order = 0;
    main = None;
    pinned = 0;
    index = [||];
  }

let rebuild_index t =
  let spans =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun (s : Section.t) ->
            if Section.size s = 0 then None
            else
              Some
                (runtime_addr l s.vaddr, runtime_addr l (Section.end_vaddr s), l))
          l.lmod.sections)
      t.loaded
  in
  let arr = Array.of_list spans in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) arr;
  t.index <- arr

let mem t = t.mem
let on_load t f = t.callbacks <- f :: t.callbacks
let on_unload t f = t.unload_callbacks <- f :: t.unload_callbacks
let loaded_modules t = List.rev t.loaded
let find_loaded t name =
  List.find_opt (fun l -> String.equal l.lmod.name name) t.loaded

(* Binary search for the section span containing [a]: find the last span
   starting at or before [a] and check containment.  Section spans never
   overlap (the assembler lays sections out disjointly and each PIC module
   gets its own base slot), so one candidate suffices. *)
let module_at t a =
  let arr = t.index in
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let b, _, _ = arr.(mid) in
    if b <= a then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None
  else
    let b, e, l = arr.(!lo - 1) in
    if a >= b && a < e then Some l else None

(* Per-module state: one row per mapped module its tracker accepted,
   newest load first.  Rows are found by run-time address through the
   module index and dropped when their module unloads, so no holder
   scans for stale state and a reused base never finds the previous
   module's row (footnote 2 of the paper). *)
type 'a table = { mutable owner : t option; mutable rows : (loaded * 'a) list }

let table () = { owner = None; rows = [] }

let track t tbl f =
  tbl.owner <- Some t;
  on_load t (fun l ->
      match f l with Some v -> tbl.rows <- (l, v) :: tbl.rows | None -> ());
  on_unload t (fun l -> tbl.rows <- List.filter (fun (o, _) -> o != l) tbl.rows)

let find tbl a =
  match tbl.owner with
  | None -> None
  | Some t -> (
    match module_at t a with Some l -> List.assq_opt l tbl.rows | None -> None)

let entries tbl = tbl.rows

let resolve_symbol t name =
  let rec go = function
    | [] -> None
    | l :: rest -> (
      match Objfile.find_export l.lmod name with
      | Some s when s.exported -> Some (l, s)
      | Some _ | None -> go rest)
  in
  go (loaded_modules t)

(* Copy a module's sections into memory at its load base. *)
let materialize t (l : loaded) =
  List.iter
    (fun (s : Section.t) ->
      Jt_mem.Memory.write_string t.mem (runtime_addr l s.vaddr) s.data)
    l.lmod.sections

(* Apply R_RELATIVE relocations (PIC local pointers). *)
let apply_relative t (l : loaded) =
  List.iter
    (fun (r : Reloc.t) ->
      match r.kind with
      | Reloc.Rel_relative v ->
        Jt_mem.Memory.write32 t.mem (runtime_addr l r.offset) (runtime_addr l v)
      | Reloc.Rel_got _ -> ())
    l.lmod.relocs

(* Initialize GOT slots: lazy imports point at their PLT lazy stub; eager
   imports (including the resolver slot) resolve immediately. *)
let bind_got t (l : loaded) =
  List.iter
    (fun (imp : Objfile.import) ->
      let slot = runtime_addr l imp.imp_got in
      match imp.imp_plt with
      | Some _ ->
        let lazy_sym = imp.imp_sym ^ "@plt.lazy" in
        (match Objfile.find_symbol l.lmod lazy_sym with
        | Some s -> Jt_mem.Memory.write32 t.mem slot (runtime_addr l s.vaddr)
        | None -> err "%s: missing PLT lazy stub for %s" l.lmod.name imp.imp_sym)
      | None -> (
        match resolve_symbol t imp.imp_sym with
        | Some (owner, s) ->
          Jt_mem.Memory.write32 t.mem slot (runtime_addr owner s.vaddr)
        | None -> err "%s: unresolved import %s" l.lmod.name imp.imp_sym))
    l.lmod.imports

(* Load [name] and its dependency closure (dependencies first), without
   binding GOTs yet.  Returns newly loaded records in load order. *)
let rec load_closure t name acc =
  if find_loaded t name <> None || List.exists (fun l -> String.equal l.lmod.name name) acc
  then acc
  else
    let m =
      match Hashtbl.find_opt t.registry name with
      | Some m -> m
      | None -> err "module not found: %s" name
    in
    let acc = List.fold_left (fun acc dep -> load_closure t dep acc) acc m.deps in
    let base =
      if Objfile.is_pic m then begin
        let b = t.next_pic_base in
        t.next_pic_base <- t.next_pic_base + pic_slot;
        b
      end
      else 0
    in
    let l = { lmod = m; base; load_order = t.next_order } in
    t.next_order <- t.next_order + 1;
    acc @ [ l ]

let commit t news =
  (* Two-phase: materialize everything, then bind (an import may resolve
     to a module later in the closure). *)
  List.iter (fun l -> materialize t l) news;
  t.loaded <- List.rev_append news t.loaded;
  rebuild_index t;
  List.iter
    (fun l ->
      apply_relative t l;
      bind_got t l)
    news;
  if Jt_trace.Trace.is_enabled () then
    List.iter
      (fun l ->
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Module_load { name = l.lmod.Objfile.name; base = l.base }))
      news;
  List.iter (fun l -> List.iter (fun f -> f l) (List.rev t.callbacks)) news

let load_main t name =
  if t.main <> None then err "main module already loaded";
  let news = load_closure t name [] in
  commit t news;
  let l =
    match find_loaded t name with Some l -> l | None -> assert false
  in
  if l.lmod.entry = None then err "%s has no entry point" name;
  t.main <- Some l;
  t.pinned <- t.next_order;
  l

let dlopen t name =
  match find_loaded t name with
  | Some l -> l
  | None ->
    let news = load_closure t name [] in
    commit t news;
    (match find_loaded t name with Some l -> l | None -> assert false)

let dlclose t name =
  match find_loaded t name with
  | Some l when l.load_order >= t.pinned ->
    (* Another loaded module may still depend on it; a real loader
       refcounts — here dependents of a dlopen'd module were loaded with
       it, so unloading the whole group head is the supported pattern. *)
    let still_needed =
      List.exists
        (fun other ->
          other != l
          && List.mem name other.lmod.Objfile.deps
          && other.load_order >= t.pinned)
        t.loaded
    in
    if still_needed then false
    else begin
      t.loaded <- List.filter (fun o -> o != l) t.loaded;
      rebuild_index t;
      if Jt_trace.Trace.is_enabled () then
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Module_unload { name = l.lmod.Objfile.name });
      List.iter (fun f -> f l) t.unload_callbacks;
      true
    end
  | Some _ | None -> false

let resolve_plt_index t ~caller_pc ~index =
  let l =
    match module_at t caller_pc with
    | Some l -> l
    | None -> err "resolve: caller pc %x not in any module" caller_pc
  in
  let plt_imports =
    List.filter (fun (i : Objfile.import) -> i.imp_plt <> None) l.lmod.imports
  in
  let plt_imports =
    List.sort
      (fun (a : Objfile.import) b -> compare a.imp_plt b.imp_plt)
      plt_imports
  in
  match List.nth_opt plt_imports index with
  | None -> err "resolve: bad PLT index %d in %s" index l.lmod.name
  | Some imp -> (
    match resolve_symbol t imp.imp_sym with
    | None -> err "resolve: unresolved symbol %s" imp.imp_sym
    | Some (owner, s) ->
      let target = runtime_addr owner s.vaddr in
      Jt_mem.Memory.write32 t.mem (runtime_addr l imp.imp_got) target;
      if Jt_trace.Trace.is_enabled () then
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Plt_resolve { caller = caller_pc; target });
      target)

let entry_point t =
  match t.main with
  | Some l -> (
    match l.lmod.entry with Some e -> runtime_addr l e | None -> assert false)
  | None -> err "no main module loaded"

let init_entries t =
  List.filter_map
    (fun l ->
      match Objfile.find_symbol l.lmod "_init" with
      | Some s -> Some (runtime_addr l s.vaddr)
      | None -> None)
    (loaded_modules t)
