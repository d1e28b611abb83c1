open Jt_obj

type t = {
  tg_module : Jt_loader.Loader.loaded;
  funcs : (int, int) Hashtbl.t;
  exports : (int, unit) Hashtbl.t;
  addr_taken : (int, unit) Hashtbl.t;
  jump_targets : (int, unit) Hashtbl.t;
  site_sets : (int, int list) Hashtbl.t;
  precise : bool;
}

let in_function_of t ~entry a =
  match Hashtbl.find_opt t.funcs entry with
  | Some size -> a >= entry && a < entry + size
  | None -> false

let inter_module_ok t a = Hashtbl.mem t.exports a || Hashtbl.mem t.addr_taken a
let intra_call_ok t a = Hashtbl.mem t.funcs a

(* Per-site policy with sound Top degradation: only precise tables
   (built from static hints) carry site sets, and a site without one —
   CPA resolved it to Top, or the table predates the pass — falls back
   to the any-entry policy.  Site sets only ever *narrow* the any-entry
   set, so a target this rejects was never a function entry the
   provenance analysis could justify. *)
let call_ok t ~site a =
  if not t.precise then intra_call_ok t a
  else
    match Hashtbl.find_opt t.site_sets site with
    | Some targets -> List.mem a targets
    | None -> intra_call_ok t a

let site_set t ~site =
  if t.precise then Hashtbl.find_opt t.site_sets site else None

let n_site_sets t = Hashtbl.length t.site_sets

let jump_ok t ~fn_entry a =
  (match fn_entry with
  | Some e -> in_function_of t ~entry:e a
  | None -> false)
  || Hashtbl.mem t.jump_targets a
  || Hashtbl.mem t.funcs a

let n_intra_call t = Hashtbl.length t.funcs
let n_inter t =
  (* exports ∪ addr_taken *)
  let u = Hashtbl.copy t.exports in
  Hashtbl.iter (fun a () -> Hashtbl.replace u a ()) t.addr_taken;
  Hashtbl.length u

let n_jump_targets_of_fn t ~fn_entry =
  let base = Hashtbl.length t.jump_targets + Hashtbl.length t.funcs in
  match fn_entry with
  | Some e -> (
    match Hashtbl.find_opt t.funcs e with
    | Some size ->
      (* instruction addresses inside the function, approximated by its
         byte extent / average instruction length of 5 *)
      base + (size / 5)
    | None -> base)
  | None -> base

let code_bytes t =
  List.fold_left
    (fun acc s -> acc + Section.size s)
    0
    (Objfile.code_sections t.tg_module.Jt_loader.Loader.lmod)

let of_module_runtime (l : Jt_loader.Loader.loaded) =
  let m = l.lmod in
  let funcs = Hashtbl.create 64 in
  let exports = Hashtbl.create 32 in
  let addr_taken = Hashtbl.create 32 in
  let jump_targets = Hashtbl.create 8 in
  let rt a = Jt_loader.Loader.runtime_addr l a in
  List.iter
    (fun (s : Symbol.t) ->
      if Symbol.is_func s then Hashtbl.replace funcs (rt s.vaddr) s.size)
    (Objfile.visible_symbols m);
  List.iter
    (fun (s : Symbol.t) ->
      if Symbol.is_func s then begin
        Hashtbl.replace exports (rt s.vaddr) ();
        (* exported entries are call targets even in stripped modules *)
        if not (Hashtbl.mem funcs (rt s.vaddr)) then
          Hashtbl.replace funcs (rt s.vaddr) s.size
      end)
    (Objfile.exported_symbols m);
  (* Raw sliding-window scan; without a disassembly there is no
     instruction-boundary refinement, so filter only to code-section
     bounds (the weak policy for stripped binaries, 4.2.2). *)
  List.iter
    (fun v ->
      let a = rt v in
      if Hashtbl.mem funcs a then Hashtbl.replace addr_taken a ()
      else if m.symtab_level <> Objfile.Full then Hashtbl.replace addr_taken a ())
    (Jt_disasm.Disasm.scan_code_pointers m);
  {
    tg_module = l;
    funcs;
    exports;
    addr_taken;
    jump_targets;
    site_sets = Hashtbl.create 1;
    precise = false;
  }
