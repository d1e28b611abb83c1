(* Writing a custom security technique on top of Janitizer.

   The framework's plugin interface (section 3.4.3) asks a tool for two
   passes: a static pass with whole-CFG visibility that compiles its
   decisions into rewrite rules, and a per-block dynamic fallback.  This
   example builds an *allocation-site taint tracker*: using the def-use
   chains of the static analyzer it marks stores whose *address* was
   derived from a malloc return value, and counts them at run time —
   cheaply, because provably-unrelated stores carry a no-op rule and cost
   nothing.

     dune exec examples/custom_tool.exe *)

open Jt_isa

let rule_tainted_store = 0x301

(* -- static pass: find stores whose base register chains back to an
   allocation call -- *)
let static_pass (sa : Janitizer.Static_analyzer.t) =
  let rules = ref [] in
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      let du = Jt_analysis.Defuse.analyze fa.fa_fn in
      List.iter
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (info : Jt_disasm.Disasm.insn_info) ->
              match info.d_insn with
              | Insn.Store (_, { base = Some (Insn.Breg rb); _ }, _) ->
                let from_alloc =
                  Jt_analysis.Defuse.traces_to du info.d_addr rb
                    ~pred:(function Insn.Call _ -> true | _ -> false)
                in
                if from_alloc then
                  rules :=
                    Jt_rules.Rules.make ~id:rule_tainted_store ~bb:b.b_addr
                      ~insn:info.d_addr ()
                    :: !rules
              | _ -> ())
            b.b_insns)
        (Jt_cfg.Cfg.fn_blocks fa.fa_fn))
    sa.sa_fns;
  {
    Jt_rules.Rules.rf_module = sa.sa_mod.Jt_obj.Objfile.name;
    rf_digest = Jt_obj.Objfile.digest sa.sa_mod;
    rf_stats = [];
    rf_rules = Janitizer.Tool.noop_marks sa (List.rev !rules);
  }

(* -- runtime: count executions of tainted stores -- *)
let tainted_executions = ref 0

let client =
  {
    Jt_dbt.Dbt.cl_on_block =
      (fun _vm b prov ~rules_at ->
        let plan = Jt_dbt.Dbt.no_plan b in
        (match prov with
        | Jt_dbt.Dbt.Static_rules ->
          Array.iteri
            (fun k (at, _, _) ->
              if
                List.exists
                  (fun (r : Jt_rules.Rules.t) -> r.rule_id = rule_tainted_store)
                  (rules_at at)
              then
                plan.(k) <-
                  [
                    {
                      Jt_dbt.Dbt.m_cost = 1;
                      m_action = Some (fun _ -> incr tainted_executions);
                      m_kind = Jt_dbt.Dbt.M_opaque;
                    };
                  ])
            b.insns
        | Jt_dbt.Dbt.Dynamic_only ->
          (* fallback: without static def-use chains, conservatively count
             every store in never-analyzed code *)
          Array.iteri
            (fun k (_, insn, _) ->
              match insn with
              | Insn.Store _ ->
                plan.(k) <-
                  [
                    {
                      Jt_dbt.Dbt.m_cost = 2;
                      m_action = Some (fun _ -> incr tainted_executions);
                      m_kind = Jt_dbt.Dbt.M_opaque;
                    };
                  ]
              | _ -> ())
            b.insns);
        plan);
  }

let tool =
  {
    Janitizer.Tool.t_setup = (fun _ ~rules_for:_ -> ());
    t_static = static_pass;
    t_tag = "alloc-taint";
    t_client = client;
  }

let () =
  (* Run it over one of the repository's SPEC-like workloads. *)
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2") in
  let o =
    Janitizer.Driver.run ~tool ~registry:w.w_registry ~main:"bzip2" ()
  in
  Format.printf
    "bzip2 under the custom taint tracker:@.  status %a@.  %d rewrite rules \
     from the static pass@.  %d executed stores traced to allocation sites@.  \
     %.2fx slowdown vs the same run natively@."
    Jt_vm.Vm.pp_status o.o_result.r_status o.o_rule_count !tainted_executions
    (let native = Jt_workloads.Specgen.run_native w in
     float_of_int o.o_result.r_cycles /. float_of_int native.r_cycles)
