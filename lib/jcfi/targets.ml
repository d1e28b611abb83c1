open Jt_obj
module Rules = Jt_rules.Rules

let tgt_func = 0x210
let tgt_export = 0x211
let tgt_addr_taken = 0x212
let tgt_jump = 0x213
let site_targets = 0x214

type counts = {
  c_funcs : int;
  c_exports : int;
  c_addr_taken : int;
  c_inter : int;  (* exports ∪ addr_taken *)
  c_jumps : int;
  c_sites : int;
}

type t = {
  tg_module : Jt_loader.Loader.loaded;
  tg_hints : Rules.index;
  tg_base : int;
  precise : bool;
  tg_counts : counts Lazy.t;
  tg_funcs : (int, int) Hashtbl.t Lazy.t;
}

let is_func (r : Rules.t) = r.rule_id = tgt_func
let is_export (r : Rules.t) = r.rule_id = tgt_export
let is_addr_taken (r : Rules.t) = r.rule_id = tgt_addr_taken
let is_jump (r : Rules.t) = r.rule_id = tgt_jump
let is_site (r : Rules.t) = r.rule_id = site_targets

(* Whether a hint at run-time address [a] satisfies [p]. *)
let hint t a p = Rules.Index.exists_at t.tg_hints (a - t.tg_base) p

let size_of (r : Rules.t) = if Array.length r.data > 0 then r.data.(0) else 0

(* A function's byte size: the data word of the last [tgt_func] hint at
   its entry (a later hint replaces an earlier one); -1 when the address
   is no function entry. *)
let func_size t entry =
  Rules.Index.fold_at
    (fun r acc -> if is_func r then size_of r else acc)
    t.tg_hints (entry - t.tg_base) (-1)

let count ix =
  Rules.Index.fold
    (fun _ rs c ->
      let b p = if List.exists p rs then 1 else 0 in
      {
        c_funcs = c.c_funcs + b is_func;
        c_exports = c.c_exports + b is_export;
        c_addr_taken = c.c_addr_taken + b is_addr_taken;
        c_inter = c.c_inter + b (fun r -> is_export r || is_addr_taken r);
        c_jumps = c.c_jumps + b is_jump;
        c_sites = c.c_sites + b is_site;
      })
    ix
    {
      c_funcs = 0;
      c_exports = 0;
      c_addr_taken = 0;
      c_inter = 0;
      c_jumps = 0;
      c_sites = 0;
    }

(* The function table the dynamic fallback walks for a site's range:
   run-time entry -> size, from the [tgt_func] hints in file order.
   Where extents overlap, the walk's last match picks the range, and
   the reported AIR depends on that pick, so the table is made and
   filled exactly as the runtime's function table always was. *)
let funcs_table (f : Rules.file) ~base =
  let funcs = Hashtbl.create 64 in
  List.iter
    (fun (r : Rules.t) ->
      if is_func r then Hashtbl.replace funcs (r.insn + base) (size_of r))
    f.rf_rules;
  funcs

let make (l : Jt_loader.Loader.loaded) f ~precise =
  let ix = Rules.index f and base = if Objfile.is_pic l.lmod then l.base else 0 in
  {
    tg_module = l;
    tg_hints = ix;
    tg_base = base;
    precise;
    tg_counts = lazy (count ix);
    tg_funcs = lazy (funcs_table f ~base);
  }

let of_hints l f = make l f ~precise:true

let in_function_of t ~entry a =
  let size = func_size t entry in
  size >= 0 && a >= entry && a < entry + size

let inter_module_ok t a = hint t a is_export || hint t a is_addr_taken
let intra_call_ok t a = hint t a is_func

(* Per-site policy with sound Top degradation: only precise tables
   (built from static hints) carry site sets, and a site without one —
   CPA resolved it to Top, or the table predates the pass — falls back
   to the any-entry policy.  Site sets only ever *narrow* the any-entry
   set, so a target this rejects was never a function entry the
   provenance analysis could justify.  A set's chunks hold link
   addresses, so the target is compared in link coordinates. *)
let call_ok t ~site a =
  if t.precise && hint t site is_site then
    let la = a - t.tg_base in
    hint t site (fun r -> is_site r && Array.exists (fun d -> d = la) r.data)
  else intra_call_ok t a

let site_set t ~site =
  if t.precise && hint t site is_site then
    Some
      (Rules.Index.fold_at
         (fun (r : Rules.t) acc ->
           if is_site r then
             Array.fold_left (fun acc d -> (d + t.tg_base) :: acc) acc r.data
           else acc)
         t.tg_hints (site - t.tg_base) []
      |> List.sort_uniq compare)
  else None

let n_site_sets t = (Lazy.force t.tg_counts).c_sites

let jump_ok t ~fn_entry a =
  (match fn_entry with
  | Some e -> in_function_of t ~entry:e a
  | None -> false)
  || hint t a is_jump || hint t a is_func

let func_range t a =
  Hashtbl.fold
    (fun e size acc -> if a >= e && a < e + max size 1 then Some (e, size) else acc)
    (Lazy.force t.tg_funcs) None

let n_entries t =
  let c = Lazy.force t.tg_counts in
  c.c_funcs + c.c_exports + c.c_addr_taken + c.c_jumps

let n_intra_call t = (Lazy.force t.tg_counts).c_funcs
let n_inter t = (Lazy.force t.tg_counts).c_inter

let n_jump_targets_of_fn t ~fn_entry =
  let c = Lazy.force t.tg_counts in
  let base = c.c_jumps + c.c_funcs in
  match fn_entry with
  | Some e ->
    let size = func_size t e in
    (* instruction addresses inside the function, approximated by its
       byte extent / average instruction length of 5 *)
    if size >= 0 then base + (size / 5) else base
  | None -> base

let code_bytes t =
  List.fold_left
    (fun acc s -> acc + Section.size s)
    0
    (Objfile.code_sections t.tg_module.Jt_loader.Loader.lmod)

(* The same hints, written from what a module shows at run time, so
   both kinds of table answer through one index. *)
let of_module_runtime (l : Jt_loader.Loader.loaded) =
  let m = l.lmod in
  let rules = ref [] in
  let hint id ?data v =
    rules := Rules.make ~id ~bb:v ~insn:v ?data () :: !rules
  in
  let entries = Hashtbl.create 64 in
  let func (s : Symbol.t) =
    Hashtbl.replace entries s.vaddr ();
    hint tgt_func ~data:[ s.size ] s.vaddr
  in
  List.iter
    (fun (s : Symbol.t) -> if Symbol.is_func s then func s)
    (Objfile.visible_symbols m);
  List.iter
    (fun (s : Symbol.t) ->
      if Symbol.is_func s then begin
        hint tgt_export s.vaddr;
        (* exported entries are call targets even in stripped modules *)
        if not (Hashtbl.mem entries s.vaddr) then func s
      end)
    (Objfile.exported_symbols m);
  (* Raw sliding-window scan; without a disassembly there is no
     instruction-boundary refinement, so filter only to code-section
     bounds (the weak policy for stripped binaries, 4.2.2). *)
  List.iter
    (fun v ->
      if Hashtbl.mem entries v || m.symtab_level <> Objfile.Full then
        hint tgt_addr_taken v)
    (Jt_disasm.Disasm.scan_code_pointers m);
  let file =
    {
      Rules.rf_module = m.name;
      rf_digest = "";
      rf_stats = [];
      rf_rules = List.rev !rules;
    }
  in
  make l file ~precise:false
