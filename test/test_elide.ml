(* Differential safety for check elision (dominating-check elimination,
   static and on traces): turning elision on must never change what a
   program does or what the sanitizer reports — only how many dynamic
   checks it takes to get there. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let run_jasan ~elide ~registry ~main () =
  let tool, _rt = Jt_jasan.Jasan.create ~elide () in
  Janitizer.Driver.run ~tool ~registry ~main ()

(* The paper's observable-equivalence criterion: exit status, program
   output and retired instruction count.  Cycles are excluded on
   purpose — elision exists to change them. *)
let observable (r : Jt_vm.Vm.result) = (r.r_status, r.r_output, r.r_icount)

let vset (r : Jt_vm.Vm.result) =
  List.sort_uniq compare
    (List.map (fun v -> (v.Jt_vm.Vm.v_kind, v.v_addr)) r.r_violations)

let check_differential label ~registry ~main =
  let off = run_jasan ~elide:false ~registry ~main () in
  let on = run_jasan ~elide:true ~registry ~main () in
  Alcotest.(check bool)
    (label ^ " observables identical")
    true
    (observable off.o_result = observable on.o_result);
  Alcotest.(check bool)
    (label ^ " same violations at same addresses")
    true
    (vset off.o_result = vset on.o_result);
  on

(* Every workload, elision off vs on: bit-identical observables. *)
let test_workloads_differential () =
  List.iter
    (fun (s : Jt_workloads.Sheet.t) ->
      let w = Jt_workloads.Specgen.build s in
      ignore (check_differential s.s_name ~registry:w.w_registry ~main:s.s_name))
    Jt_workloads.Sheet.all

(* Violation/poison injection: the bugs elision is not allowed to hide.
   Each program must report the same violation kinds at the same fault
   addresses with elision on. *)
let test_injections_differential () =
  List.iter
    (fun (label, m) ->
      let o =
        check_differential label
          ~registry:(Progs.registry_for m)
          ~main:m.Jt_obj.Objfile.name
      in
      Alcotest.(check bool)
        (label ^ " still detects")
        true
        (vset o.o_result <> []))
    [
      ("heap overflow", Progs.heap_overflow_prog ());
      ("use after free", Progs.uaf_prog ());
      ("stack smash", Progs.stack_smash_prog ~bad:true ());
    ]

(* -- claim-level unit tests -- *)

let report_for ?name funcs =
  let nm = Option.value name ~default:"el" in
  let m =
    build ~name:nm ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main" funcs
  in
  let sa = Janitizer.Static_analyzer.analyze m in
  (m, Jt_jasan.Jasan.elision_report sa)

let fn_report m reports fname =
  let addr = (Jt_obj.Objfile.find_symbol m fname |> Option.get).vaddr in
  List.find (fun (r : Jt_jasan.Jasan.fn_report) -> r.er_fn = addr) reports

(* Two identical heap loads, no redefinition and no barrier in between:
   the second is subsumed by the first (the dominating-check pass), with
   the first's address as witness. *)
let test_dominating_check_elided () =
  let m, reports =
    report_for
      [
        func "main"
          ([
             movi Reg.r0 32;
             call_import "malloc";
             mov Reg.r6 Reg.r0;
             ld Reg.r1 (mem_b ~disp:0 Reg.r6);
             ld Reg.r2 (mem_b ~disp:0 Reg.r6);
           ]
          @ Progs.exit0);
      ]
  in
  let r = fn_report m reports "main" in
  match
    List.filter
      (fun (_, c) -> c <> Jt_jasan.Jasan.Exempt_canary)
      r.er_claims
  with
  | [ (a1, Jt_jasan.Jasan.Checked); (a2, Jt_jasan.Jasan.Dom_elided w) ] ->
    Alcotest.(check int) "witness is the first load" a1 w;
    Alcotest.(check bool) "witness dominates" true (a1 < a2)
  | claims ->
    Alcotest.failf "unexpected claims: %s"
      (String.concat ", "
         (List.map
            (fun (a, c) ->
              Printf.sprintf "0x%x:%s" a (Jt_jasan.Jasan.claim_name c))
            claims))

(* A call between the two identical accesses is a shadow-state barrier
   (free/realloc may poison the range): the second access must keep its
   own check. *)
let test_call_is_barrier () =
  let m, reports =
    report_for ~name:"elbar"
      [
        func "main"
          ([
             movi Reg.r0 32;
             call_import "malloc";
             mov Reg.r6 Reg.r0;
             ld Reg.r1 (mem_b ~disp:0 Reg.r6);
             mov Reg.r0 Reg.r1;
             call_import "print_int";
             ld Reg.r2 (mem_b ~disp:0 Reg.r6);
           ]
          @ Progs.exit0);
      ]
  in
  let r = fn_report m reports "main" in
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "no dom elision across call" true
        (match c with Jt_jasan.Jasan.Dom_elided _ -> false | _ -> true))
    r.er_claims

(* A store through a frame-base register plus a masked index: not a
   constant [sp]/[fp] offset, so outside the frame policy, and no other
   pass covers it — it keeps its own check. *)
let frame_prog () =
  [
    func "victim"
      (Abi.frame_enter ~canary:true ~locals:32 ()
      @ [
          call_import "read_int";
          mov Reg.r3 Reg.r0;
          andi Reg.r3 7;
          lea Reg.r2 (mem_b ~disp:(-32) Reg.fp);
          st (mem_bi ~scale:2 Reg.r2 Reg.r3) Reg.r3;
          movi Reg.r0 3;
        ]
      @ Abi.frame_leave ~canary:true ~locals:32 ());
    func "main" ([ call "victim"; call_import "print_int" ] @ Progs.exit0);
  ]

let test_masked_frame_store_checked () =
  let m, reports = report_for ~name:"elfr" (frame_prog ()) in
  let r = fn_report m reports "victim" in
  (* every other access of [victim] is canary handling *)
  Alcotest.(check (list string))
    "masked frame store keeps its check" [ "checked" ]
    (List.filter_map
       (fun (_, c) ->
         if c = Jt_jasan.Jasan.Exempt_canary then None
         else Some (Jt_jasan.Jasan.claim_name c))
       r.er_claims);
  ignore
    (check_differential "frame workload" ~registry:(Progs.registry_for m)
       ~main:"elfr")

(* The stack-smash store indexes past the array into the canary; its
   index is data-dependent across iterations, so no static pass may
   claim it away from the dynamic checks that catch the smash. *)
let test_smash_store_not_elided () =
  let m = Progs.stack_smash_prog ~bad:true () in
  let sa = Janitizer.Static_analyzer.analyze m in
  let reports = Jt_jasan.Jasan.elision_report sa in
  let addr = (Jt_obj.Objfile.find_symbol m "victim" |> Option.get).vaddr in
  let r =
    List.find (fun (x : Jt_jasan.Jasan.fn_report) -> x.er_fn = addr) reports
  in
  (* the scaled-index store is the only Breg-base + index access *)
  List.iter
    (fun (a, c) ->
      match c with
      | Jt_jasan.Jasan.Dom_elided _ ->
        Alcotest.failf "unsafe elision of 0x%x (%s)" a
          (Jt_jasan.Jasan.claim_name c)
      | _ -> ())
    r.er_claims;
  Alcotest.(check bool)
    "indexed store keeps a dynamic check" true
    (List.exists
       (fun (_, c) ->
         c = Jt_jasan.Jasan.Checked || c = Jt_jasan.Jasan.Scev_covered)
       r.er_claims)

(* Overlap regression: on a program mixing every claim source (canary
   handling, frame policy, SCEV-hoistable loop, repeated heap access),
   the passes must partition the accesses — elision_report raises
   Invalid_argument on any double claim, and each access address
   appears exactly once. *)
let test_claims_are_a_partition () =
  let funcs =
    [
      func "victim"
        (Abi.frame_enter ~canary:true ~locals:32 ()
        @ [
            call_import "read_int";
            mov Reg.r3 Reg.r0;
            andi Reg.r3 7;
            lea Reg.r2 (mem_b ~disp:(-32) Reg.fp);
            st (mem_bi ~scale:2 Reg.r2 Reg.r3) Reg.r3;
            sti (mem_b ~disp:(-12) Reg.fp) 9;
            ld Reg.r4 (mem_b ~disp:8 Reg.fp);
            movi Reg.r0 3;
          ]
        @ Abi.frame_leave ~canary:true ~locals:32 ());
      func "main"
        ([
           movi Reg.r0 64;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r1 0;
           label "fill";
           cmpi Reg.r1 8;
           jcc Insn.Ge "done";
           st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
           addi Reg.r1 1;
           jmp "fill";
           label "done";
           ld Reg.r4 (mem_b ~disp:0 Reg.r6);
           ld Reg.r5 (mem_b ~disp:0 Reg.r6);
           call "victim";
         ]
        @ Progs.exit0);
    ]
  in
  let m, reports = report_for ~name:"elmix" funcs in
  List.iter
    (fun (r : Jt_jasan.Jasan.fn_report) ->
      let addrs = List.map fst r.er_claims in
      Alcotest.(check int)
        "each access claimed exactly once"
        (List.length addrs)
        (List.length (List.sort_uniq compare addrs)))
    reports;
  (* the mix really exercises distinct sources *)
  let all = List.concat_map (fun r -> r.Jt_jasan.Jasan.er_claims) reports in
  let has c = List.exists (fun (_, c') -> c' = c) all in
  Alcotest.(check bool) "has scev claim" true (has Jt_jasan.Jasan.Scev_covered);
  Alcotest.(check bool)
    "has dom claim" true
    (List.exists
       (fun (_, c) ->
         match c with Jt_jasan.Jasan.Dom_elided _ -> true | _ -> false)
       all);
  Alcotest.(check bool)
    "has policy-frame claim" true
    (has Jt_jasan.Jasan.Policy_frame);
  ignore m;
  (* and the mixed program is differentially safe *)
  let mixed =
    build ~name:"elmix" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main" funcs
  in
  ignore
    (check_differential "mixed program"
       ~registry:(Progs.registry_for mixed)
       ~main:"elmix")

(* The emitted rule file's stats must agree with the claim report: the
   number of MEM_CHECK rules (and the "checks" stat) equals the number
   of Checked claims, and the elision stats count the elided claims. *)
let test_stats_match_claims () =
  let m, reports = report_for ~name:"elfr" (frame_prog ()) in
  let tool, _ = Jt_jasan.Jasan.create () in
  let files = Janitizer.Driver.analyze_all ~tool (Progs.registry_for m) in
  let f = List.assoc "elfr" files in
  let all = List.concat_map (fun r -> r.Jt_jasan.Jasan.er_claims) reports in
  let count p = List.length (List.filter (fun (_, c) -> p c) all) in
  let stat k = List.assoc k f.Jt_rules.Rules.rf_stats in
  Alcotest.(check int)
    "checks stat = Checked claims"
    (count (fun c -> c = Jt_jasan.Jasan.Checked))
    (stat "checks");
  Alcotest.(check int)
    "elide_dom stat = Dom_elided claims"
    (count (fun c ->
         match c with Jt_jasan.Jasan.Dom_elided _ -> true | _ -> false))
    (stat "elide_dom");
  Alcotest.(check int)
    "mem_check rules = Checked claims"
    (count (fun c -> c = Jt_jasan.Jasan.Checked))
    (List.length
       (List.filter
          (fun r -> r.Jt_rules.Rules.rule_id = Jt_jasan.Jasan.Ids.mem_check)
          f.rf_rules))

let () =
  Alcotest.run "elide"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads" `Slow test_workloads_differential;
          Alcotest.test_case "injections" `Quick test_injections_differential;
        ] );
      ( "claims",
        [
          Alcotest.test_case "dominating check" `Quick test_dominating_check_elided;
          Alcotest.test_case "call barrier" `Quick test_call_is_barrier;
          Alcotest.test_case "masked frame store checked" `Quick
            test_masked_frame_store_checked;
          Alcotest.test_case "smash not elided" `Quick test_smash_store_not_elided;
          Alcotest.test_case "partition" `Quick test_claims_are_a_partition;
          Alcotest.test_case "stats match" `Quick test_stats_match_claims;
        ] );
    ]
