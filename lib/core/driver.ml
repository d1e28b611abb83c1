type outcome = {
  o_result : Jt_vm.Vm.result;
  o_dbt : Jt_dbt.Dbt.stats option;
  o_dynamic_fraction : float;
  o_rule_count : int;
  o_trace_elisions : (int * (int * string * int) list) list;
}

(* A shared object's rule file, per tool tag: one static pass per
   library and configuration in the process (section 3.3.1). *)
let shared_rules : Jt_rules.Rules.file Jt_ir.Rewrite_cache.kind =
  Jt_ir.Rewrite_cache.kind "rules"

let analyze_all ?store ~tool registry =
  List.map
    (fun (m : Jt_obj.Objfile.t) ->
      ( m.name,
        Jt_ir.Rewrite_cache.find_or_compute shared_rules ~tool:tool.Tool.t_tag m
          (fun () -> tool.Tool.t_static (Static_analyzer.analyze ?store m)) ))
    registry

let rules_path ~dir name = Filename.concat dir (name ^ ".jtr")

let save_rules ~dir files =
  Jt_codec.Codec.mkdir_p dir;
  List.iter
    (fun (name, f) ->
      Jt_codec.Codec.write_file_atomic (rules_path ~dir name)
        (Jt_rules.Rules.encode_file f))
    files

let static_closure ~registry ~main =
  let registry =
    if
      List.exists
        (fun (m : Jt_obj.Objfile.t) -> String.equal m.name "ld.so")
        registry
    then registry
    else registry @ [ Jt_loader.Loader.ld_so ]
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (m : Jt_obj.Objfile.t) -> Hashtbl.replace by_name m.name m)
    registry;
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt by_name name with
      | Some m ->
        List.iter go m.deps;
        order := m :: !order
      | None -> ()
    end
  in
  go "ld.so";
  go main;
  List.rev !order

let run ?fuel ?(hybrid = true) ?trace_elide ?(precomputed = []) ?store ~tool
    ~registry ~main () =
  (* Each driver run reports its own (domain-local) counters; without
     this, numbers from a previous run on the same domain leak into the
     next one's snapshot. *)
  Jt_metrics.Metrics.Counters.reset ();
  let modules = static_closure ~registry ~main in
  let rule_files =
    Jt_trace.Trace.in_phase Jt_trace.Trace.Analyze (fun () ->
        if not hybrid then []
        else
          precomputed
          @ analyze_all ?store ~tool
              (List.filter
                 (fun (m : Jt_obj.Objfile.t) ->
                   not (List.mem_assoc m.name precomputed))
                 modules))
  in
  let rule_count =
    List.fold_left
      (fun acc (_, (f : Jt_rules.Rules.file)) -> acc + List.length f.rf_rules)
      0 rule_files
  in
  let rules_for name = List.assoc_opt name rule_files in
  let vm = Jt_vm.Vm.make ~registry () in
  let engine =
    Jt_dbt.Dbt.create ~vm ?trace_elide ~client:tool.Tool.t_client ~rules_for ()
  in
  Jt_trace.Trace.in_phase Jt_trace.Trace.Load (fun () ->
      let c0 = vm.Jt_vm.Vm.cycles in
      tool.Tool.t_setup vm ~rules_for;
      Jt_vm.Vm.boot vm ~main;
      if Jt_trace.Trace.is_enabled () then
        Jt_trace.Trace.phase_add_cycles Jt_trace.Trace.Load
          (vm.Jt_vm.Vm.cycles - c0));
  if vm.Jt_vm.Vm.status = Jt_vm.Vm.Running then
    Jt_trace.Trace.in_phase Jt_trace.Trace.Run (fun () ->
        let c0 = vm.Jt_vm.Vm.cycles in
        Jt_dbt.Dbt.run ?fuel engine;
        (* [Rewrite] cycles (lazy block translation) are attributed by
           the engine itself and form a carved-out subset of this
           [Run] total. *)
        if Jt_trace.Trace.is_enabled () then
          Jt_trace.Trace.phase_add_cycles Jt_trace.Trace.Run
            (vm.Jt_vm.Vm.cycles - c0));
  {
    o_result = Jt_vm.Vm.result vm;
    o_dbt = Some (Jt_dbt.Dbt.stats engine);
    o_dynamic_fraction = Jt_dbt.Dbt.dynamic_block_fraction engine;
    o_rule_count = rule_count;
    o_trace_elisions = Jt_dbt.Dbt.trace_elisions engine;
  }

let run_null ?fuel ~registry ~main () =
  Jt_metrics.Metrics.Counters.reset ();
  let vm = Jt_vm.Vm.make ~registry () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main;
  if vm.Jt_vm.Vm.status = Jt_vm.Vm.Running then Jt_dbt.Dbt.run ?fuel engine;
  {
    o_result = Jt_vm.Vm.result vm;
    o_dbt = Some (Jt_dbt.Dbt.stats engine);
    o_dynamic_fraction = Jt_dbt.Dbt.dynamic_block_fraction engine;
    o_rule_count = 0;
    o_trace_elisions = [];
  }

(* Plain-VM run with a pre-boot setup hook: the entry point for
   statically emitted binaries (Jt_emit), whose instrumentation lives in
   their own instructions — no DBT, no translation, just [Vm.run].
   [setup] installs the emit runtime (syscall hooks, load callbacks,
   allocator interposition) on the fresh VM before boot. *)
let run_plain ?fuel ?instrument ?(setup = fun _ -> ()) ~registry ~main () =
  Jt_metrics.Metrics.Counters.reset ();
  let vm = Jt_vm.Vm.make ?instrument ~registry () in
  setup vm;
  Jt_vm.Vm.boot vm ~main;
  if vm.Jt_vm.Vm.status = Jt_vm.Vm.Running then Jt_vm.Vm.run ?fuel vm;
  {
    o_result = Jt_vm.Vm.result vm;
    o_dbt = None;
    o_dynamic_fraction = 0.0;
    o_rule_count = 0;
    o_trace_elisions = [];
  }

let run_native ?fuel ~registry ~main () =
  let r = Jt_vm.Vm.run_native ?fuel ~registry ~main () in
  {
    o_result = r;
    o_dbt = None;
    o_dynamic_fraction = 0.0;
    o_rule_count = 0;
    o_trace_elisions = [];
  }
