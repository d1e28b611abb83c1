type t = {
  t_setup :
    Jt_vm.Vm.t -> rules_for:(string -> Jt_rules.Rules.file option) -> unit;
  t_static : Static_analyzer.t -> Jt_rules.Rules.file;
  t_tag : string;
  t_client : Jt_dbt.Dbt.client;
}

let noop_marks (sa : Static_analyzer.t) rules =
  let marked = Hashtbl.create 256 in
  List.iter (fun (r : Jt_rules.Rules.t) -> Hashtbl.replace marked r.bb ()) rules;
  let noops =
    List.filter_map
      (fun bb ->
        if Hashtbl.mem marked bb then None
        else Some (Jt_rules.Rules.make ~id:Jt_rules.Rules.no_op ~bb ~insn:bb ()))
      (Static_analyzer.all_block_addrs sa)
  in
  rules @ noops
