(* The reference rule tables: the per-run tables the DBT and JCFI built
   from a rule file before the file's load-time index
   ({!Jt_rules.Rules.index}) replaced them.  [load] is the DBT's table
   (run-time addresses, adjusted records), [targets] JCFI's five target
   tables; test_rules holds the index's answers to both. *)

module Rules = Jt_rules.Rules

type table = {
  bbs : (int, unit) Hashtbl.t;
  by_insn : (int, Rules.t list) Hashtbl.t;
  count : int;
}

let load (f : Rules.file) ~base ~pic =
  let adj a = if pic then a + base else a in
  let bbs = Hashtbl.create 256 in
  let by_insn = Hashtbl.create 256 in
  List.iter
    (fun (r : Rules.t) ->
      let r = { r with bb = adj r.bb; insn = adj r.insn } in
      Hashtbl.replace bbs r.bb ();
      if r.rule_id <> Rules.no_op then
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_insn r.insn) in
        Hashtbl.replace by_insn r.insn (r :: prev))
    f.rf_rules;
  Hashtbl.filter_map_inplace (fun _ rs -> Some (List.rev rs)) by_insn;
  { bbs; by_insn; count = List.length f.rf_rules }

let bb_seen t a = Hashtbl.mem t.bbs a
let at_insn t a = Option.value ~default:[] (Hashtbl.find_opt t.by_insn a)
let size t = t.count

type targets = {
  funcs : (int, int) Hashtbl.t;
  exports : (int, unit) Hashtbl.t;
  addr_taken : (int, unit) Hashtbl.t;
  jump_targets : (int, unit) Hashtbl.t;
  site_sets : (int, int list) Hashtbl.t;
}

let targets (f : Rules.file) ~base ~pic =
  let module Ids = Jt_jcfi.Jcfi.Ids in
  let adj a = if pic then a + base else a in
  let funcs = Hashtbl.create 64 in
  let exports = Hashtbl.create 32 in
  let addr_taken = Hashtbl.create 32 in
  let jump_targets = Hashtbl.create 16 in
  let site_sets = Hashtbl.create 16 in
  List.iter
    (fun (r : Rules.t) ->
      if r.rule_id = Ids.tgt_func then
        Hashtbl.replace funcs (adj r.insn)
          (if Array.length r.data > 0 then r.data.(0) else 0)
      else if r.rule_id = Ids.tgt_export then Hashtbl.replace exports (adj r.insn) ()
      else if r.rule_id = Ids.tgt_addr_taken then
        Hashtbl.replace addr_taken (adj r.insn) ()
      else if r.rule_id = Ids.tgt_jump then
        Hashtbl.replace jump_targets (adj r.insn) ()
      else if r.rule_id = Ids.site_targets then begin
        let site = adj r.insn in
        let prev = Option.value ~default:[] (Hashtbl.find_opt site_sets site) in
        let chunk = List.map adj (Array.to_list r.data) in
        Hashtbl.replace site_sets site (prev @ chunk)
      end)
    f.rf_rules;
  Hashtbl.filter_map_inplace
    (fun _ ts -> Some (List.sort_uniq compare ts))
    site_sets;
  { funcs; exports; addr_taken; jump_targets; site_sets }
