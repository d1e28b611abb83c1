(* Property: for random (terminating) programs, execution under the DBT
   engine — with and without JASan attached — is observationally
   equivalent to native interpretation.  This is the soundness claim at
   the heart of the paper: run-time modification must never change what
   a working program computes. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

type sop =
  | Alu of Insn.binop * int * int  (* reg idx 0-5, imm *)
  | Movi of int * int
  | St of int * int  (* reg, word offset *)
  | Ld of int * int
  | Pushpop of int
  | Fwd of int  (* unconditional skip *)
  | Cmpfwd of Insn.cond * int * int * int  (* cond, reg, imm, skip *)
  | Idx of bool * int  (* loop body only: store (or load) reg at buf[r7] *)
  | Loop of loop

(* A backward counted loop: [r7] counts from 0 to [trips] against an
   immediate bound, or against [r8] when [reg_bound].  The body is
   straight-line and never writes [r7] or [r8]. *)
and loop = { trips : int; reg_bound : bool; body : sop list }

type seg = sop list

let reg i = Reg.of_index (i mod 6)

let gen_straight =
  let open QCheck2.Gen in
  [
    map3
      (fun op r v -> Alu (op, r, v))
      (oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Mul ])
      (int_bound 5) (int_bound 1000);
    map2 (fun r v -> Movi (r, v)) (int_bound 5) (int_bound 100000);
    map2 (fun r o -> St (r, o)) (int_bound 5) (int_bound 60);
    map2 (fun r o -> Ld (r, o)) (int_bound 5) (int_bound 60);
    map (fun r -> Pushpop r) (int_bound 5);
  ]

(* 40-80 trips: enough for the head to cross the trace threshold and
   for the trace to run streaks. *)
let gen_loop =
  let open QCheck2.Gen in
  let body_op =
    oneof (map2 (fun st r -> Idx (st, r)) bool (int_bound 5) :: gen_straight)
  in
  map3
    (fun trips reg_bound body -> { trips; reg_bound; body })
    (int_range 40 80) bool
    (list_size (int_range 1 4) body_op)

let gen_sop =
  let open QCheck2.Gen in
  frequency
    (List.map (fun g -> (2, g)) gen_straight
    @ [
        (2, map (fun k -> Fwd (1 + (k mod 3))) (int_bound 10));
        ( 2,
          let* c = oneofl [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Ugt; Insn.Le ] in
          let* r = int_bound 5 in
          let* v = int_bound 50 in
          let* k = int_bound 3 in
          return (Cmpfwd (c, r, v, 1 + k)) );
        (1, map (fun l -> Loop l) gen_loop);
      ])

let gen_prog =
  QCheck2.Gen.(list_size (int_range 3 15) (list_size (int_range 1 6) gen_sop))

(* A program whose first segment opens with a loop, so it always runs. *)
let gen_loop_prog =
  QCheck2.Gen.map2
    (fun l segs ->
      match segs with
      | first :: rest -> (Loop l :: first) :: rest
      | [] -> [ [ Loop l ] ])
    gen_loop gen_prog

let build_prog (segs : seg list) =
  let n = List.length segs in
  let seg_label i = Printf.sprintf "s%d" (min i n) in
  let rec emit_op i j op =
    match op with
    | Alu (o, r, v) -> [ binopi o (reg r) v ]
    | Movi (r, v) -> [ movi (reg r) v ]
    | St (r, o) -> [ st (mem_b ~disp:(4 * o) Reg.r6) (reg r) ]
    | Ld (r, o) -> [ ld (reg r) (mem_b ~disp:(4 * o) Reg.r6) ]
    | Idx (true, r) -> [ st (mem_bi ~scale:4 Reg.r6 Reg.r7) (reg r) ]
    | Idx (false, r) -> [ ld (reg r) (mem_bi ~scale:4 Reg.r6 Reg.r7) ]
    | Pushpop r -> [ push (reg r); pop (reg r) ]
    | Fwd k -> [ jmp (seg_label (i + k)) ]
    | Cmpfwd (c, r, v, k) -> [ cmpi (reg r) v; jcc c (seg_label (i + k)) ]
    | Loop l ->
      let head = Printf.sprintf "l%d_%d" i j in
      let exit = head ^ "_exit" in
      let test =
        if l.reg_bound then cmp Reg.r7 Reg.r8 else cmpi Reg.r7 l.trips
      in
      [ movi Reg.r7 0; movi Reg.r8 l.trips; label head; test; jcc Insn.Ge exit ]
      @ List.concat (List.mapi (emit_op i) l.body)
      @ [ addi Reg.r7 1; jmp head; label exit ]
  in
  let items =
    List.concat
      (List.mapi
         (fun i ops ->
           label (seg_label i) :: List.concat (List.mapi (emit_op i) ops))
         segs)
  in
  let out =
    List.concat_map
      (fun r -> [ mov Reg.r0 (reg r); syscall Sysno.write_int ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  build ~name:"rand" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:[ data "buf" [ Dspace 512 ] ]
    [
      func "main"
        ([ addr_of_data ~pic:false Reg.r6 "buf" ]
        @ items
        @ [ label (seg_label n) ]
        @ out
        @ [ movi Reg.r0 0; syscall Sysno.exit_ ]);
    ]

let observe (r : Jt_vm.Vm.result) = (r.r_status, r.r_output, r.r_icount)

let run_native m = observe (Progs.run_native m)

let run_dbt m =
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"rand";
  Jt_dbt.Dbt.run engine;
  observe (Jt_vm.Vm.result vm)

let run_jasan m =
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"rand" ()
  in
  observe o.o_result

let run_jcfi m =
  let tool, _ = Jt_jcfi.Jcfi.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"rand" ()
  in
  observe o.o_result

let prop_dbt_transparent =
  QCheck2.Test.make ~name:"DBT == interpreter on random programs" ~count:120
    gen_prog (fun segs ->
      let m = build_prog segs in
      run_native m = run_dbt m)

let prop_jasan_transparent =
  QCheck2.Test.make ~name:"JASan-instrumented == native (observable)"
    ~count:60 gen_prog (fun segs ->
      let m = build_prog segs in
      let s, out, _ = run_native m in
      let s', out', _ = run_jasan m in
      s = s' && out = out')

let prop_jcfi_transparent =
  QCheck2.Test.make ~name:"JCFI-instrumented == native (observable)" ~count:60
    gen_prog (fun segs ->
      let m = build_prog segs in
      let s, out, _ = run_native m in
      let s', out', _ = run_jcfi m in
      s = s' && out = out')

(* Each engine fast path switched off in turn. *)
let toggles =
  [
    (true, true, true, true);
    (false, true, true, true);
    (true, false, true, true);
    (true, true, false, true);
    (true, true, true, false);
  ]

(* Under the null DBT or JASan dyn-only (no rules: every load and store
   checked), with chain links, inline caches, traces and trace elision
   toggled: the observables, the violations, and whether a trace ran. *)
let run_toggled ~jasan (chain, ibl, trace, trace_elide) m =
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let client =
    if jasan then begin
      let tool, _ = Jt_jasan.Jasan.create () in
      tool.t_setup vm ~rules_for:(fun _ -> None);
      Some tool.t_client
    end
    else None
  in
  let engine =
    Jt_dbt.Dbt.create ~vm ?client ~chain ~ibl ~trace ~trace_elide ()
  in
  Jt_vm.Vm.boot vm ~main:"rand";
  Jt_dbt.Dbt.run engine;
  ( observe (Jt_vm.Vm.result vm),
    vm.violations,
    (Jt_dbt.Dbt.stats engine).st_trace_execs > 0 )

(* Loop programs reach chain links, NET traces, streak plans and the
   induction guard; every toggle must still match the interpreter. *)
let prop_loops ~jasan name =
  QCheck2.Test.make ~name ~count:40 gen_loop_prog (fun segs ->
      let m = build_prog segs in
      let native = run_native m in
      List.for_all
        (fun ((_, _, trace, _) as tg) ->
          let o, violations, traced = run_toggled ~jasan tg m in
          o = native && violations = [] && traced = trace)
        toggles)

let () =
  Alcotest.run "equivalence"
    [
      ( "transparency",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dbt_transparent; prop_jasan_transparent; prop_jcfi_transparent ]
      );
      ( "loops",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_loops ~jasan:false "null DBT toggles == interpreter";
            prop_loops ~jasan:true "JASan dyn-only toggles == interpreter";
          ] );
    ]
