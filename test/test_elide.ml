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

let show_claims claims =
  String.concat ", "
    (List.map
       (fun (a, c) -> Printf.sprintf "0x%x:%s" a (Jt_jasan.Jasan.claim_name c))
       claims)

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
  | claims -> Alcotest.failf "unexpected claims: %s" (show_claims claims)

(* The claims of [main] in a one-function program, canary handling
   dropped. *)
let main_claims ~name body =
  let m, reports = report_for ~name [ func "main" (body @ Progs.exit0) ] in
  List.filter
    (fun (_, c) -> c <> Jt_jasan.Jasan.Exempt_canary)
    (fn_report m reports "main").er_claims

let malloc_r6 = [ movi Reg.r0 32; call_import "malloc"; mov Reg.r6 Reg.r0 ]

(* Three identical heap loads: the second and the third are both covered
   by the first, the one that keeps its check.  Naming the second (itself
   elided) as the third's witness would point at an access that carries
   no check. *)
let test_witness_keeps_its_check () =
  match
    main_claims ~name:"el3"
      (malloc_r6
      @ [
          ld Reg.r1 (mem_b ~disp:0 Reg.r6);
          ld Reg.r2 (mem_b ~disp:0 Reg.r6);
          ld Reg.r3 (mem_b ~disp:0 Reg.r6);
        ])
  with
  | [ (a1, Jt_jasan.Jasan.Checked);
      (_, Jt_jasan.Jasan.Dom_elided w2);
      (_, Jt_jasan.Jasan.Dom_elided w3) ] ->
    Alcotest.(check int) "second's witness is the first load" a1 w2;
    Alcotest.(check int) "third's witness is the first load" a1 w3
  | claims -> Alcotest.failf "unexpected claims: %s" (show_claims claims)

let all_checked label claims =
  if
    claims = []
    || List.exists (fun (_, c) -> c <> Jt_jasan.Jasan.Checked) claims
  then Alcotest.failf "%s: expected every access checked: %s" label
      (show_claims claims)

(* A diamond whose arms each check the key, with no check before the
   branch: the key is available at the join, but from a different check
   on each path, so no one access witnesses the join's. *)
let diamond =
  malloc_r6
  @ [
      cmpi Reg.r6 0;
      jcc Insn.Eq "else";
      ld Reg.r1 (mem_b ~disp:0 Reg.r6);
      jmp "join";
      label "else";
      ld Reg.r2 (mem_b ~disp:0 Reg.r6);
      label "join";
      ld Reg.r3 (mem_b ~disp:0 Reg.r6);
    ]

let test_several_diamond () =
  all_checked "diamond" (main_claims ~name:"eldia" diamond)

(* After such a join the join's access keeps its check, so it becomes
   the key's site: a later identical access is elided with the join's
   access as witness, as the nearest check that covers it. *)
let test_several_then_recheck () =
  match
    main_claims ~name:"eldia2" (diamond @ [ ld Reg.r4 (mem_b ~disp:0 Reg.r6) ])
  with
  | [ (_, Jt_jasan.Jasan.Checked); (_, Jt_jasan.Jasan.Checked);
      (j, Jt_jasan.Jasan.Checked); (_, Jt_jasan.Jasan.Dom_elided w) ] ->
    Alcotest.(check int) "witness is the join's access" j w
  | claims -> Alcotest.failf "unexpected claims: %s" (show_claims claims)

(* A dominating check, then one arm that redefines the base register
   and checks again: the dominator's check no longer covers that path,
   so reporting it as the join's witness would be stale. *)
let test_several_redefined_arm () =
  all_checked "redefined arm"
    (main_claims ~name:"elred"
       (malloc_r6
       @ [
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           cmpi Reg.r1 0;
           jcc Insn.Eq "join";
           mov Reg.r6 Reg.r0;
           ld Reg.r2 (mem_b ~disp:0 Reg.r6);
           label "join";
           ld Reg.r3 (mem_b ~disp:0 Reg.r6);
         ]))

(* Every [Dom_elided w] over the registry's main modules, libc, libm and
   ld.so: [w] is a [Checked] access of the same function with the same
   address operand and width, and it dominates the access — earlier in
   the same block, or in a dominating block. *)
let test_registry_witnesses () =
  let seen = Hashtbl.create 64 in
  let modules =
    List.concat_map
      (fun (s : Jt_workloads.Sheet.t) ->
        List.filter
          (fun (m : Jt_obj.Objfile.t) ->
            m.name = s.s_name || m.name = "libc.so" || m.name = "libm.so")
          (Jt_workloads.Specgen.build s).w_registry)
      Jt_workloads.Sheet.all
    @ [ Jt_loader.Loader.ld_so ]
    |> List.filter (fun m ->
           let d = Jt_obj.Objfile.digest m in
           (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true))
  in
  let n_dom = ref 0 in
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      let sa = Janitizer.Static_analyzer.analyze m in
      List.iter2
        (fun (fa : Janitizer.Static_analyzer.fn_analysis)
             (r : Jt_jasan.Jasan.fn_report) ->
          (* access address -> (block, in-block index, operand, width) *)
          let where = Hashtbl.create 64 in
          List.iter
            (fun (b : Jt_cfg.Cfg.block) ->
              Array.iteri
                (fun k (i : Jt_disasm.Disasm.insn_info) ->
                  match i.d_insn with
                  | Insn.Load (w, _, mem) | Insn.Store (w, mem, _) ->
                    Hashtbl.replace where i.d_addr (b.b_addr, k, (mem, w))
                  | _ -> ())
                b.b_insns)
            (Jt_cfg.Cfg.fn_blocks fa.fa_fn);
          List.iter
            (fun (a, c) ->
              match c with
              | Jt_jasan.Jasan.Dom_elided w ->
                incr n_dom;
                let fail why =
                  Alcotest.failf "%s fn 0x%x: 0x%x elided by 0x%x: %s" m.name
                    r.er_fn a w why
                in
                if List.assoc_opt w r.er_claims <> Some Jt_jasan.Jasan.Checked
                then fail "witness is not checked";
                let ab, ak, akey = Hashtbl.find where a in
                let wb, wk, wkey = Hashtbl.find where w in
                if akey <> wkey then fail "different key";
                if
                  not
                    (if wb = ab then wk < ak
                     else Jt_cfg.Domtree.dominates fa.fa_fn.f_dom wb ab)
                then fail "witness does not dominate"
              | _ -> ())
            r.er_claims)
        sa.sa_fns
        (Jt_jasan.Jasan.elision_report sa))
    modules;
  Alcotest.(check int) "28 mains, libc, libm and ld.so" 31 (List.length modules);
  Alcotest.(check bool) "some accesses elided" true (!n_dom > 0)

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
          Alcotest.test_case "witness keeps its check" `Quick
            test_witness_keeps_its_check;
          Alcotest.test_case "several: diamond" `Quick test_several_diamond;
          Alcotest.test_case "several: re-check becomes the site" `Quick
            test_several_then_recheck;
          Alcotest.test_case "several: redefined arm" `Quick
            test_several_redefined_arm;
          Alcotest.test_case "registry witnesses" `Quick test_registry_witnesses;
          Alcotest.test_case "call barrier" `Quick test_call_is_barrier;
          Alcotest.test_case "masked frame store checked" `Quick
            test_masked_frame_store_checked;
          Alcotest.test_case "smash not elided" `Quick test_smash_store_not_elided;
          Alcotest.test_case "partition" `Quick test_claims_are_a_partition;
          Alcotest.test_case "stats match" `Quick test_stats_match_claims;
        ] );
    ]
