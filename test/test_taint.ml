(* JTaint: propagation, policy, and the hybrid/dynamic split. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let vkinds (r : Jt_vm.Vm.result) =
  List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let run ?(hybrid = true) ?(input = []) m =
  let tool, rt = Jt_taint.Taint.create () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine =
    let rule_files =
      if hybrid then
        Janitizer.Driver.analyze_all ~tool
          (Janitizer.Driver.static_closure ~registry:(Progs.registry_for m)
             ~main:m.Jt_obj.Objfile.name)
      else []
    in
    Jt_dbt.Dbt.create ~vm ~client:tool.Janitizer.Tool.t_client
      ~rules_for:(fun n -> List.assoc_opt n rule_files)
      ()
  in
  Jt_vm.Vm.set_input vm input;
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_dbt.Dbt.run engine;
  (Jt_vm.Vm.result vm, rt)

(* Input flows through arithmetic and memory into an indirect call. *)
let hijackable ~masked =
  build ~name:"taintp" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:[ data "tbl" [ Dfuncptr "op_a"; Dfuncptr "op_b" ] ]
    [
      func "op_a" [ addi Reg.r0 1; ret ];
      func "op_b" [ addi Reg.r0 2; ret ];
      func "main"
        ([ call_import "read_int" ]
        @ (if masked then
             (* a sanitizing table-load breaks the taint chain: the index
                is clean data derived from a compare *)
             [
               cmpi Reg.r0 0;
               movi Reg.r1 0;
               jcc Insn.Eq "pick";
               movi Reg.r1 1;
               label "pick";
             ]
           else [ mov Reg.r1 Reg.r0; andi Reg.r1 1 ])
        @ [
            addr_of_data ~pic:false Reg.r2 "tbl";
            ld Reg.r3 (mem_bi ~scale:4 Reg.r2 Reg.r1);
            call_reg Reg.r3;
            call_import "print_int";
          ]
        @ Progs.exit0);
    ]

let test_tainted_dispatch_flagged () =
  List.iter
    (fun (mode, hybrid) ->
      let r, rt = run ~hybrid ~input:[ 1 ] (hijackable ~masked:false) in
      Alcotest.(check bool)
        (mode ^ " flags tainted dispatch")
        true
        (List.mem "tainted-target" (vkinds r));
      Alcotest.(check bool) (mode ^ " alert counted") true (Jt_taint.Taint.Rt.alerts rt > 0);
      Alcotest.(check string) (mode ^ " still runs") "3\n" r.r_output)
    [ ("hybrid", true); ("dyn", false) ]

let test_sanitized_dispatch_clean () =
  List.iter
    (fun (mode, hybrid) ->
      let r, _ = run ~hybrid ~input:[ 1 ] (hijackable ~masked:true) in
      Alcotest.(check (list string)) (mode ^ " clean") [] (vkinds r))
    [ ("hybrid", true); ("dyn", false) ]

let test_taint_through_memory () =
  (* input -> store to heap -> load back -> used as jump target value *)
  let m =
    build ~name:"tmem" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "target" [ movi Reg.r0 9; ret ];
        func "main"
          ([
             movi Reg.r0 16;
             call_import "malloc";
             mov Reg.r6 Reg.r0;
             call_import "read_int" (* tainted r0 *);
             addr_of_func ~pic:false Reg.r1 "target";
             add Reg.r1 Reg.r0 (* tainted address arithmetic *);
             st (mem_b ~disp:0 Reg.r6) Reg.r1 (* through memory *);
             ld Reg.r4 (mem_b ~disp:0 Reg.r6);
             call_reg Reg.r4;
             call_import "print_int";
           ]
          @ Progs.exit0);
      ]
  in
  (* input 0 keeps the program correct while the taint persists *)
  let r, rt = run ~input:[ 0 ] m in
  Alcotest.(check bool) "flagged through memory" true
    (List.mem "tainted-target" (vkinds r));
  Alcotest.(check bool) "bytes were tainted" true
    (Jt_taint.Taint.Rt.tainted_bytes rt >= 0);
  Alcotest.(check string) "ran" "9\n" r.r_output

let test_untainted_program_clean () =
  let m = Progs.indirect_prog () in
  let r, rt = run m in
  Alcotest.(check (list string)) "clean" [] (vkinds r);
  Alcotest.(check int) "no alerts" 0 (Jt_taint.Taint.Rt.alerts rt);
  Alcotest.(check string) "output" "222\n" r.r_output

let test_rules_skip_non_movers () =
  let m = hijackable ~masked:false in
  let tool, _ = Jt_taint.Taint.create () in
  let sa = Janitizer.Static_analyzer.analyze m in
  let f = tool.Janitizer.Tool.t_static sa in
  let count id =
    List.length
      (List.filter (fun (r : Jt_rules.Rules.t) -> r.rule_id = id) f.rf_rules)
  in
  Alcotest.(check bool) "propagation rules exist" true
    (count Jt_taint.Taint.Ids.propagate > 0);
  Alcotest.(check bool) "check rules exist" true
    (count Jt_taint.Taint.Ids.check_target > 0);
  (* compares and direct branches carry no propagation rule: count of
     propagate rules is well below the instruction count *)
  let insns = Jt_cfg.Cfg.insn_count sa.sa_cfg in
  Alcotest.(check bool) "non-movers skipped" true
    (count Jt_taint.Taint.Ids.propagate < insns)

let () =
  Alcotest.run "taint"
    [
      ( "policy",
        [
          Alcotest.test_case "tainted dispatch" `Quick test_tainted_dispatch_flagged;
          Alcotest.test_case "sanitized dispatch" `Quick test_sanitized_dispatch_clean;
          Alcotest.test_case "through memory" `Quick test_taint_through_memory;
          Alcotest.test_case "clean program" `Quick test_untainted_program_clean;
        ] );
      ( "hybrid",
        [ Alcotest.test_case "rule selectivity" `Quick test_rules_skip_non_movers ] );
    ]
