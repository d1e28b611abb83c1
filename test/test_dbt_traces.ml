(* IBL and trace formation are host-level dispatch fast paths: observable
   program behavior (exit status, output, instruction count, violations)
   must be bit-identical with them off — only simulated cycles may drop.
   Range invalidation (cache_flush, dlclose) must tear down any trace
   touching the range, and re-formation must work afterwards. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let observable (r : Jt_vm.Vm.result) =
  (r.r_status, r.r_output, r.r_icount, r.r_violations)

let run ?(chain = true) ?(ibl = true) ?(trace = true) ?registry m =
  let registry =
    match registry with Some r -> r | None -> Progs.registry_for m
  in
  let vm = Jt_vm.Vm.make ~registry () in
  let engine = Jt_dbt.Dbt.create ~vm ~chain ~ibl ~trace () in
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_dbt.Dbt.run engine;
  (Jt_vm.Vm.result vm, engine, vm)

(* Every fast-path combination must agree on observable behavior, and
   the entry accounting identity must hold: every executed block arrives
   through exactly one of the dispatcher, a chain link, an IBL hit or a
   trace-interior transition. *)
let check_configs name m ?registry expected =
  let full, e_full, _ = run ?registry m in
  let results =
    [
      ("chain+ibl", run ~trace:false ?registry m);
      ("chain", run ~ibl:false ~trace:false ?registry m);
      ("bare", run ~chain:false ~ibl:false ~trace:false ?registry m);
    ]
  in
  Alcotest.(check string) (name ^ " output") expected full.r_output;
  List.iter
    (fun (cfg, (r, _, _)) ->
      Alcotest.(check bool)
        (name ^ " bit-identical vs " ^ cfg)
        true
        (observable r = observable full))
    results;
  List.iter
    (fun e ->
      let s = Jt_dbt.Dbt.stats e in
      Alcotest.(check int)
        (name ^ " entry accounting")
        s.st_block_execs
        (s.st_dispatch_entries + s.st_chain_hits + s.st_ibl_hits
       + s.st_trace_interior))
    (e_full :: List.map (fun (_, (_, e, _)) -> e) results);
  (full, e_full)

let test_trace_formation () =
  let m = Progs.sum_prog ~n:200 () in
  let _, e = check_configs "sum" m (Progs.sum_expected 200) in
  let s = Jt_dbt.Dbt.stats e in
  Alcotest.(check bool) "traces built" true (s.st_traces_built > 0);
  Alcotest.(check bool) "traces executed" true (s.st_trace_execs > 0);
  Alcotest.(check bool) "interior transitions" true (s.st_trace_interior > 0);
  Alcotest.(check bool) "traces live at exit" true (Jt_dbt.Dbt.traces_live e > 0);
  (* the hot loops run almost entirely inside traces: most block
     transfers become trace-interior transitions, and the dispatcher is
     entered no more often than with chaining alone *)
  let _, e_chain, _ = run ~ibl:false ~trace:false m in
  let s_chain = Jt_dbt.Dbt.stats e_chain in
  Alcotest.(check bool) "no extra dispatcher entries" true
    (s.st_dispatch_entries <= s_chain.st_dispatch_entries);
  (* the two-block loop traces turn half the loop's block transfers into
     interior transitions; with the warmup iterations that is still well
     over a third of all executed blocks *)
  Alcotest.(check bool) "traces carry the hot path" true
    (3 * s.st_trace_interior > s.st_block_execs)

(* A loop whose body is an indirect call through a stable function
   pointer: the per-site inline caches should absorb nearly every
   indirect transfer, and the cheaper hit charge shows up in cycles. *)
let ind_loop_prog ?(name = "indloop") ?(n = 100) () =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:[ data "fp" [ Dfuncptr "bump" ] ]
    [
      func "bump" [ addi Reg.r5 1; ret ];
      func "main"
        ([
           movi Reg.r5 0;
           addr_of_data ~pic:false Reg.r3 "fp";
           ld Reg.r4 (mem_b ~disp:0 Reg.r3);
           movi Reg.r1 0;
           label "loop";
           cmpi Reg.r1 n;
           jcc Insn.Ge "done";
           call_reg Reg.r4;
           addi Reg.r1 1;
           jmp "loop";
           label "done";
           mov Reg.r0 Reg.r5;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let test_ibl_hits () =
  let m = ind_loop_prog () in
  let _, _ = check_configs "indloop" m "100\n" in
  (* trace off isolates the IBL: the loop's call and return sites are
     monomorphic, so after the first miss everything hits *)
  let r_ibl, e, _ = run ~trace:false m in
  let s = Jt_dbt.Dbt.stats e in
  Alcotest.(check bool) "ibl hits dominate" true (s.st_ibl_hits >= 150);
  Alcotest.(check bool) "few ibl misses" true
    (s.st_ibl_misses * 10 <= s.st_ibl_hits);
  let r_noibl, _, _ = run ~ibl:false ~trace:false m in
  Alcotest.(check bool) "ibl hit charge is cheaper" true
    (r_ibl.r_cycles < r_noibl.r_cycles)

let test_reset_stats () =
  let m = Progs.sum_prog ~n:50 () in
  let _, e, _ = run m in
  Jt_dbt.Dbt.reset_stats e;
  let s = Jt_dbt.Dbt.stats e in
  Alcotest.(check int) "block execs zeroed" 0 s.st_block_execs;
  Alcotest.(check int) "chain hits zeroed" 0 s.st_chain_hits;
  Alcotest.(check int) "entries zeroed" 0 s.st_dispatch_entries;
  Alcotest.(check int) "ibl zeroed" 0 (s.st_ibl_hits + s.st_ibl_misses);
  Alcotest.(check int) "traces zeroed" 0
    (s.st_traces_built + s.st_trace_execs + s.st_trace_interior)

(* JIT helpers shared by the self-modifying-code programs: encode a tiny
   [mov r0, value; ret] function and store its bytes through [r6]. *)
let jit_code value =
  List.fold_left
    (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
    ("", 0)
    [ Insn.Mov (Reg.r0, Insn.Imm value); Insn.Ret ]
  |> fst

let jit_store_bytes code =
  List.concat
    (List.mapi
       (fun i c ->
         [
           movi Reg.r2 (Char.code c);
           I
             (Jt_asm.Sinsn.Sstore
                (Insn.W1, mem_b ~disp:i Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
         ])
       (List.init (String.length code) (String.get code)))

(* A hot round() whose body calls JIT-generated code; the code is then
   regenerated (cache_flush over the region) and round() runs again.
   The first trace contains the old JIT block, so the flush must kill
   it, and a fresh trace must form at the same loop head. *)
let jit_regen_hot_prog () =
  let regen value =
    jit_store_bytes (jit_code value)
    @ [ mov Reg.r0 Reg.r6; movi Reg.r1 64; syscall Sysno.cache_flush ]
  in
  build ~name:"jithot" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      (* 50 iterations: call the JIT'd function, accumulate into r5 *)
      func "round"
        [
          movi Reg.r1 0;
          label "loop";
          cmpi Reg.r1 50;
          jcc Insn.Ge "done";
          call_reg Reg.r6;
          add Reg.r5 Reg.r0;
          addi Reg.r1 1;
          jmp "loop";
          label "done";
          ret;
        ];
      func "main"
        ([ movi Reg.r5 0; movi Reg.r0 64; syscall Sysno.mmap_code;
           mov Reg.r6 Reg.r0 ]
        @ regen 1
        @ [ call "round" ]
        @ regen 2
        @ [ call "round"; mov Reg.r0 Reg.r5; call_import "print_int" ]
        @ Progs.exit0);
    ]

let test_flush_tears_down_trace () =
  let m = jit_regen_hot_prog () in
  (* 50*1 + 50*2 *)
  let _, e = check_configs "jithot" m "150\n" in
  let s = Jt_dbt.Dbt.stats e in
  Alcotest.(check bool) "trace re-formed after flush" true
    (s.st_traces_built >= 2);
  Alcotest.(check bool) "first trace torn down" true
    (Jt_dbt.Dbt.traces_live e < s.st_traces_built);
  (* the surviving round-2 trace calls into the JIT region, so an
     explicit flush over that region must kill it (traces elsewhere,
     e.g. in startup code, are untouched) *)
  let _, e2, vm2 = run m in
  let live_before = Jt_dbt.Dbt.traces_live e2 in
  Alcotest.(check bool) "live before flush" true (live_before > 0);
  Jt_vm.Vm.flush_range vm2 (fst Jt_vm.Vm.jit_region) 64;
  Alcotest.(check bool) "flush_range kills overlapping traces" true
    (Jt_dbt.Dbt.traces_live e2 < live_before)

(* dlclose/reopen at a reused base: the plugin is non-PIC, so the loader
   places it at base 0 on every load — the second round re-executes the
   same addresses with fresh code.  Stale traces and inline-cache
   entries from the first round must not survive the dlclose flush. *)
let dl_reuse_prog () =
  build ~name:"dlhot" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:
      [
        data "modname" [ Dbytes "hotplug.so\x00" ];
        data "symname" [ Dbytes "tick\x00" ];
      ]
    [
      func "round"
        [
          addr_of_data ~pic:true Reg.r0 "modname";
          syscall Sysno.dlopen;
          mov Reg.r7 Reg.r0;
          addr_of_data ~pic:true Reg.r1 "symname";
          syscall Sysno.dlsym;
          mov Reg.r4 Reg.r0;
          movi Reg.r1 0;
          label "loop";
          cmpi Reg.r1 50;
          jcc Insn.Ge "done";
          call_reg Reg.r4;
          addi Reg.r1 1;
          jmp "loop";
          label "done";
          mov Reg.r0 Reg.r7;
          syscall Sysno.dlclose;
          ret;
        ];
      func "main"
        ([
           movi Reg.r5 0; call "round"; call "round"; mov Reg.r0 Reg.r5;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let hotplug =
  build ~name:"hotplug.so" ~kind:Jt_obj.Objfile.Exec_nonpic
    [ func ~exported:true "tick" [ addi Reg.r5 3; ret ] ]

let test_dlclose_reopen_reused_base () =
  let m = dl_reuse_prog () in
  let registry = [ m; Progs.libc; hotplug ] in
  (* 2 rounds * 50 calls * +3 *)
  let _, e = check_configs "dlhot" m ~registry "300\n" in
  let s = Jt_dbt.Dbt.stats e in
  Alcotest.(check bool) "trace re-formed after dlclose/reopen" true
    (s.st_traces_built >= 2);
  Alcotest.(check bool) "unloaded trace torn down" true
    (Jt_dbt.Dbt.traces_live e < s.st_traces_built)

(* -- trace-level check elision under invalidation -- *)

(* Raw engine with the JASan client attached (no static rules, so every
   block takes the dynamic-fallback path and its checks carry address
   keys for the trace-spine pass). *)
let run_jasan ?(trace_elide = true) ~registry m =
  Jt_metrics.Metrics.Counters.reset ();
  let tool, _rt = Jt_jasan.Jasan.create ~elide:true () in
  let vm = Jt_vm.Vm.make ~registry () in
  let engine =
    Jt_dbt.Dbt.create ~vm ~trace_elide ~client:tool.Janitizer.Tool.t_client ()
  in
  tool.Janitizer.Tool.t_setup vm ~rules_for:(fun _ -> None);
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_dbt.Dbt.run engine;
  let snap = Jt_metrics.Metrics.Counters.snapshot () in
  (Jt_vm.Vm.result vm, engine, vm, snap)

(* A hot loop that loads the same heap word twice (the second is a
   trace-dom elision candidate) and, every fourth iteration, rewrites
   the JIT region's bytes and cache-flushes it before calling the JIT
   code.  Trace recording starts on a flushing iteration, so the flush
   is a trace constituent upstream of the JIT block: when the flushing
   path next matches the trace, the flush kills the JIT constituent
   after the head was entered but before the interior reaches it — the
   mid-trace severing the side exit must recover from.  On the other
   iterations the trace runs (and elides) normally. *)
let smc_mid_trace_prog ?(n = 48) () =
  build ~name:"smchot" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r5 0;
           movi Reg.r0 64;
           syscall Sysno.mmap_code;
           mov Reg.r6 Reg.r0;
           movi Reg.r0 16;
           call_import "malloc";
           mov Reg.r7 Reg.r0;
           sti (mem_b ~disp:0 Reg.r7) 5;
           movi Reg.r4 0;
           label "loop";
           cmpi Reg.r4 n;
           jcc Insn.Ge "done";
           ld Reg.r1 (mem_b ~disp:0 Reg.r7);
           ld Reg.r2 (mem_b ~disp:0 Reg.r7);
           add Reg.r5 Reg.r2;
           mov Reg.r3 Reg.r4;
           andi Reg.r3 3;
           cmpi Reg.r3 0;
           jcc Insn.Ne "noflush";
         ]
        @ jit_store_bytes (jit_code 2)
        @ [
            mov Reg.r0 Reg.r6;
            movi Reg.r1 64;
            syscall Sysno.cache_flush;
            label "noflush";
            call_reg Reg.r6;
            add Reg.r5 Reg.r0;
            addi Reg.r4 1;
            jmp "loop";
            label "done";
            mov Reg.r0 Reg.r5;
            call_import "print_int";
          ]
        @ Progs.exit0);
    ]

(* The flush severs the trace mid-execution while trace-level elisions
   are active: the side exit must re-enable every elided check (observable
   behavior and the violation set are bit-identical with the pass off),
   and the elided-execution accounting must balance exactly. *)
let test_mid_trace_flush_elision () =
  let m = smc_mid_trace_prog () in
  let registry = Progs.registry_for m in
  let r_off, e_off, _, snap_off = run_jasan ~trace_elide:false ~registry m in
  let r_on, e_on, _, snap_on = run_jasan ~trace_elide:true ~registry m in
  (* 48 * (5 heap + 2 jit) *)
  Alcotest.(check string) "output" "336\n" r_on.r_output;
  Alcotest.(check bool)
    "observables identical with trace elision on" true
    (observable r_off = observable r_on);
  let s_on = Jt_dbt.Dbt.stats e_on in
  Alcotest.(check bool) "traces re-formed" true (s_on.st_traces_built >= 2);
  Alcotest.(check bool) "traces executed" true (s_on.st_trace_execs > 0);
  Alcotest.(check bool)
    "mid-trace flush tore traces down" true
    (Jt_dbt.Dbt.traces_live e_on < s_on.st_traces_built);
  let field k snap = List.assoc k snap in
  let elided snap =
    field "san_trace_elide_dom" snap + field "san_trace_elide_streak" snap
  in
  Alcotest.(check int) "baseline elides nothing at trace level" 0
    (elided snap_off);
  Alcotest.(check bool)
    "duplicate load elided inside the trace" true
    (field "san_trace_elide_dom" snap_on > 0);
  (* every check the baseline executes is either executed by the elided
     run too or accounted as an elided M_check execution — nothing is
     silently lost across the side exits *)
  Alcotest.(check int)
    "check executions balance"
    (field "san_checks" snap_off)
    (field "san_checks" snap_on
    + field "san_trace_elide_dom" snap_on
    + field "san_trace_elide_streak" snap_on);
  ignore e_off

(* After any storm of range invalidations, the O(1) live-trace count must
   agree with the full-recount oracle — the regression for the old
   O(traces · length) [traces_live] being replaced by an incremental
   counter. *)
let test_flush_storm_live_count () =
  let m = jit_regen_hot_prog () in
  let _, e, vm = run m in
  let agree label =
    Alcotest.(check int)
      label
      (Jt_dbt.Dbt.traces_live_scan e)
      (Jt_dbt.Dbt.traces_live e)
  in
  agree "live count agrees after the run";
  let base = fst Jt_vm.Vm.jit_region in
  for i = 0 to 15 do
    Jt_vm.Vm.flush_range vm (base + (i mod 4 * 16)) 16;
    agree (Printf.sprintf "live count agrees after flush %d" i)
  done;
  (* flush the whole low address space: every trace dies, and both
     counts say so *)
  Jt_vm.Vm.flush_range vm 0 (1 lsl 24);
  agree "live count agrees after full flush";
  Alcotest.(check int) "no trace survives a full flush" 0
    (Jt_dbt.Dbt.traces_live e)

(* End-to-end through the driver: a hot loop re-loading the same heap
   word settles into steady state, where the loop-invariant (streak)
   variant elides the per-iteration check; the decisions surface in the
   outcome for the CLI fact dump. *)
let dup_load_prog ?(n = 100) () =
  build ~name:"duphot" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 16;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           sti (mem_b ~disp:0 Reg.r6) 3;
           movi Reg.r5 0;
           movi Reg.r4 0;
           label "loop";
           cmpi Reg.r4 n;
           jcc Insn.Ge "done";
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           ld Reg.r2 (mem_b ~disp:0 Reg.r6);
           add Reg.r5 Reg.r2;
           addi Reg.r4 1;
           jmp "loop";
           label "done";
           mov Reg.r0 Reg.r5;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

(* A counted loop over a heap array whose bound lives in a register:
   the static SCEV pass refuses to hoist it (a register bound cannot be
   proven stable to the preheader), so every iteration keeps its check —
   until the trace layer's induction guard observes the bound stable
   along the streak and trades the per-iteration checks for one pair of
   endpoint checks at streak onset. *)
let reg_bound_loop_prog ?(n = 256) () =
  build ~name:"indhot" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 (4 * n);
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r1 n;
           movi Reg.r4 0;
           label "fill";
           cmp Reg.r4 Reg.r1;
           jcc Insn.Ge "sum_init";
           st (mem_bi ~scale:4 Reg.r6 Reg.r4) Reg.r4;
           addi Reg.r4 1;
           jmp "fill";
           label "sum_init";
           movi Reg.r5 0;
           movi Reg.r4 0;
           label "sum";
           cmp Reg.r4 Reg.r1;
           jcc Insn.Ge "done";
           ld Reg.r2 (mem_bi ~scale:4 Reg.r6 Reg.r4);
           add Reg.r5 Reg.r2;
           addi Reg.r4 1;
           jmp "sum";
           label "done";
           mov Reg.r0 Reg.r5;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let test_induction_guard () =
  let m = reg_bound_loop_prog () in
  let registry = Progs.registry_for m in
  let r_off, _, _, snap_off = run_jasan ~trace_elide:false ~registry m in
  let r_on, _, _, snap_on = run_jasan ~trace_elide:true ~registry m in
  Alcotest.(check string) "output" "32640\n" r_on.r_output;
  Alcotest.(check bool)
    "observables identical with the guard active" true
    (observable r_off = observable r_on);
  let field k snap = List.assoc k snap in
  Alcotest.(check bool)
    "induction guard elided per-iteration checks" true
    (field "san_trace_elide_ind" snap_on > 0);
  Alcotest.(check bool)
    "elision saves real check work" true
    (2 * field "san_checks" snap_on < field "san_checks" snap_off);
  (* accounting: the elided run's executed checks plus its elided
     executions exceed the baseline's executed checks by exactly the
     guard's own endpoint checks — a nonnegative, even surplus *)
  let surplus =
    field "san_checks" snap_on
    + field "san_trace_elide_dom" snap_on
    + field "san_trace_elide_streak" snap_on
    + field "san_trace_elide_ind" snap_on
    - field "san_checks" snap_off
  in
  Alcotest.(check bool)
    "guard endpoint checks are the only surplus" true
    (surplus >= 2 && surplus mod 2 = 0)

(* A client that puts a canary unpoison between two checks of the same
   access, [check k; unpoison; check k], on every load and store.  With
   [~unpoison:false] the middle meta is left out: the control spine.
   Each executed check bumps [checks]. *)
let recheck_client ~unpoison checks =
  let check k =
    {
      Jt_dbt.Dbt.m_cost = 10;
      m_action = Some (fun _ -> incr checks);
      m_kind = Jt_dbt.Dbt.M_check k;
    }
  in
  let unp =
    { Jt_dbt.Dbt.m_cost = 5; m_action = Some ignore; m_kind = Jt_dbt.Dbt.M_unpoison }
  in
  {
    Jt_dbt.Dbt.cl_on_block =
      (fun _ b _ ~rules_at:_ ->
        Array.map
          (fun (_, i, _) ->
            let key =
              match i with
              | Insn.Load (_, _, m) | Insn.Store (_, m, _) ->
                Jt_analysis.Avail.key_of m 4
              | _ -> None
            in
            match key with
            | Some k when unpoison -> [ check k; unp; check k ]
            | Some k -> [ check k; check k ]
            | None -> [])
          b.Jt_dbt.Dbt.insns);
  }

let run_recheck ~unpoison ~trace_elide m =
  Jt_metrics.Metrics.Counters.reset ();
  let checks = ref 0 in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine =
    Jt_dbt.Dbt.create ~vm ~trace_elide
      ~client:(recheck_client ~unpoison checks) ()
  in
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_dbt.Dbt.run engine;
  let reasons =
    List.concat_map
      (fun (_, ds) -> List.map (fun (_, r, _) -> r) ds)
      (Jt_dbt.Dbt.trace_elisions engine)
  in
  (Jt_vm.Vm.result vm, !checks, Jt_metrics.Metrics.Counters.snapshot (), reasons)

(* An unpoison on a trace spine keeps both of its behaviours: it is
   transparent to check availability (the re-check after it is still a
   "trace-dom" drop) and it disqualifies the induction guard (the same
   counted loop without it does get the guard). *)
let test_unpoison_on_spine () =
  let m = reg_bound_loop_prog () in
  let r_off, c_off, _, _ = run_recheck ~unpoison:true ~trace_elide:false m in
  let r_on, c_on, snap, reasons = run_recheck ~unpoison:true ~trace_elide:true m in
  Alcotest.(check string) "output" "32640\n" r_on.r_output;
  Alcotest.(check bool) "observables identical" true
    (observable r_off = observable r_on);
  let field k = List.assoc k snap in
  Alcotest.(check bool) "re-check after the unpoison dropped as trace-dom" true
    (List.mem "trace-dom" reasons && field "san_trace_elide_dom" > 0);
  Alcotest.(check bool) "no induction guard on the spine" false
    (List.mem "trace-ind" reasons);
  Alcotest.(check int) "no guard elisions" 0 (field "san_trace_elide_ind");
  (* without a guard there are no endpoint checks: executed plus elided
     checks equal the unelided run's executed checks exactly *)
  Alcotest.(check int) "check executions balance" c_off
    (c_on + field "san_trace_elide_dom" + field "san_trace_elide_streak");
  let _, _, snap_ctl, reasons_ctl =
    run_recheck ~unpoison:false ~trace_elide:true m
  in
  Alcotest.(check bool) "control spine gets the induction guard" true
    (List.mem "trace-ind" reasons_ctl
    && List.assoc "san_trace_elide_ind" snap_ctl > 0)

let test_trace_elision_decisions () =
  let m = dup_load_prog () in
  let registry = Progs.registry_for m in
  let tool, _ = Jt_jasan.Jasan.create () in
  (* dynamic-only: the static pass would hoist the loop-invariant check
     out of the loop itself; the fallback path leaves per-iteration
     checks for the trace layer to elide *)
  let o =
    Janitizer.Driver.run ~hybrid:false ~tool ~registry ~main:"duphot" ()
  in
  Alcotest.(check string) "output" "300\n" o.o_result.r_output;
  Alcotest.(check bool)
    "a live trace carries elision decisions" true
    (List.exists (fun (_, ds) -> ds <> []) o.o_trace_elisions);
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun (_, reason, _) ->
          Alcotest.(check bool)
            ("known reason: " ^ reason)
            true
            (List.mem reason
               [ "trace-dom"; "trace-streak"; "trace-ind" ]))
        ds)
    o.o_trace_elisions;
  let snap = Jt_metrics.Metrics.Counters.snapshot () in
  Alcotest.(check bool)
    "steady state elides the loop-invariant check" true
    (List.assoc "san_trace_elide_streak" snap > 0)

let () =
  Alcotest.run "dbt-traces"
    [
      ( "fastpaths",
        [
          Alcotest.test_case "trace formation" `Quick test_trace_formation;
          Alcotest.test_case "ibl hits" `Quick test_ibl_hits;
          Alcotest.test_case "reset stats" `Quick test_reset_stats;
          Alcotest.test_case "flush teardown" `Quick
            test_flush_tears_down_trace;
          Alcotest.test_case "dlclose reused base" `Quick
            test_dlclose_reopen_reused_base;
        ] );
      ( "trace-elide",
        [
          Alcotest.test_case "mid-trace flush" `Quick
            test_mid_trace_flush_elision;
          Alcotest.test_case "flush storm live count" `Quick
            test_flush_storm_live_count;
          Alcotest.test_case "induction guard" `Quick test_induction_guard;
          Alcotest.test_case "unpoison on spine" `Quick test_unpoison_on_spine;
          Alcotest.test_case "elision decisions" `Quick
            test_trace_elision_decisions;
        ] );
    ]
