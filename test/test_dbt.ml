(* The DBT engine must be transparent: same output and exit status as
   native execution, with overhead showing up only in the cycle count. *)

let all_progs () =
  [
    ("sum", Progs.sum_prog (), Some (Progs.sum_expected 50));
    ("jit", Progs.jit_prog (), Some "123\n");
    ("dlopen", Progs.dlopen_prog (), Some "777\n");
    ("indirect", Progs.indirect_prog (), Some "222\n");
    ("smash-good", Progs.stack_smash_prog ~bad:false (), Some "3\n");
  ]

let run_null m =
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_dbt.Dbt.run engine;
  (Jt_vm.Vm.result vm, engine)

let test_transparency () =
  List.iter
    (fun (name, m, expected) ->
      let native = Progs.run_native m in
      let under_dbt, _ = run_null m in
      Alcotest.(check string)
        (name ^ " output") native.Jt_vm.Vm.r_output under_dbt.Jt_vm.Vm.r_output;
      (match expected with
      | Some e -> Alcotest.(check string) (name ^ " expected") e native.r_output
      | None -> ());
      Alcotest.(check bool)
        (name ^ " exits") true
        (match (native.r_status, under_dbt.r_status) with
        | Jt_vm.Vm.Exited a, Jt_vm.Vm.Exited b -> a = b
        | _ -> false);
      Alcotest.(check bool)
        (name ^ " dbt costs more") true
        (under_dbt.r_cycles > native.r_cycles);
      Alcotest.(check int)
        (name ^ " same instruction count") native.r_icount under_dbt.r_icount)
    (all_progs ())

let test_code_cache_reuse () =
  (* Loop-heavy program: executed blocks far exceed translated blocks. *)
  let m = Progs.sum_prog ~n:200 () in
  let _, engine = run_null m in
  let s = Jt_dbt.Dbt.stats engine in
  let translated = s.st_blocks_static + s.st_blocks_dynamic in
  Alcotest.(check bool) "reuse" true (s.st_block_execs > 4 * translated)

let test_jit_blocks_are_dynamic () =
  let m = Progs.jit_prog () in
  let _, engine = run_null m in
  let s = Jt_dbt.Dbt.stats engine in
  (* No rules registered at all, so with a null client everything is
     "dynamic"; the point here is that JIT code translates and runs. *)
  Alcotest.(check bool) "has dynamic blocks" true (s.st_blocks_dynamic > 0)

let test_cache_flush_invalidation () =
  (* Regenerate code at the same address with different constants; without
     flush handling the second call would return the stale value. *)
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let gen value = Progs.encode_at 0 [ Insn.Mov (Reg.r0, Insn.Imm value); Insn.Ret ] in
  let m =
    build ~name:"regen" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([ movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
          @ Progs.store_code (gen 1)
          @ [
              mov Reg.r0 Reg.r6; movi Reg.r1 64; syscall Sysno.cache_flush;
              call_reg Reg.r6; call_import "print_int";
            ]
          @ Progs.store_code (gen 2)
          @ [
              mov Reg.r0 Reg.r6; movi Reg.r1 64; syscall Sysno.cache_flush;
              call_reg Reg.r6; call_import "print_int";
            ]
          @ Progs.exit0);
      ]
  in
  let native = Progs.run_native m in
  Alcotest.(check string) "native sees regen" "1\n2\n" native.r_output;
  let under_dbt, _ = run_null m in
  Alcotest.(check string) "dbt sees regen" "1\n2\n" under_dbt.r_output

(* Chaining is a host-level dispatch optimization: results (cycles,
   output, violations) must be bit-identical with it off, while the
   dispatcher is entered far less often on loop-heavy code. *)
let test_chaining_equivalent_and_cheaper () =
  let m = Progs.sum_prog ~n:200 () in
  let go chain =
    let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
    let engine = Jt_dbt.Dbt.create ~vm ~chain () in
    Jt_vm.Vm.boot vm ~main:"sum";
    Jt_dbt.Dbt.run engine;
    (Jt_vm.Vm.result vm, Jt_dbt.Dbt.stats engine)
  in
  let r_on, s_on = go true in
  let r_off, s_off = go false in
  Alcotest.(check bool) "bit-identical results" true (r_on = r_off);
  Alcotest.(check int) "unchained never chains" 0 s_off.st_chain_hits;
  let transfers = s_on.st_chain_hits + s_on.st_dispatch_entries in
  Alcotest.(check bool) "chain-hit rate > 50%" true
    (2 * s_on.st_chain_hits > transfers);
  Alcotest.(check bool) ">= 2x fewer dispatcher entries" true
    (s_off.st_dispatch_entries >= 2 * s_on.st_dispatch_entries)

(* The fuel budget must fire inside a block, not only between blocks: a
   long straight-line block used to overshoot the budget arbitrarily (here
   the program would simply exit before fuel was ever checked). *)
let test_fuel_checked_mid_block () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let m =
    build ~name:"fuelb" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [ func "main" (List.init 40 (fun _ -> addi Reg.r0 1) @ Progs.exit0) ]
  in
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"fuelb";
  Jt_dbt.Dbt.run ~fuel:10 engine;
  Alcotest.(check bool) "out of fuel" true
    (vm.status = Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel);
  Alcotest.(check int) "stops at the budget" 10 vm.icount

(* The engine configurations the fuel and syscall tests run: the null
   DBT and JASan dyn-only (no rules, so every load and store carries a
   check), each with traces on and off. *)
let configs =
  [
    ("null", false, true);
    ("null, no traces", false, false);
    ("jasan dyn-only", true, true);
    ("jasan dyn-only, no traces", true, false);
  ]

(* Boot [m] under one configuration, after [setup] on the fresh VM, and
   run it with [fuel]. *)
let run_config ~jasan ~trace ?fuel ?(setup = ignore) m =
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  let client =
    if jasan then begin
      let tool, _ = Jt_jasan.Jasan.create () in
      tool.t_setup vm ~rules_for:(fun _ -> None);
      Some tool.t_client
    end
    else None
  in
  let engine = Jt_dbt.Dbt.create ~vm ?client ~trace () in
  setup vm;
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_dbt.Dbt.run ?fuel engine;
  (vm, engine)

let run_native ?fuel ?(setup = ignore) m =
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  setup vm;
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_vm.Vm.run ?fuel vm;
  vm

(* Everything a fuel cut or a mid-block exit could get wrong. *)
let machine_state (vm : Jt_vm.Vm.t) =
  Format.asprintf "%a pc=%#x icount=%d regs=[%s] out=%S violations=%d"
    Jt_vm.Vm.pp_status vm.status vm.pc vm.icount
    (String.concat " " (Array.to_list (Array.map string_of_int vm.regs)))
    (Jt_vm.Vm.output vm)
    (List.length vm.violations)

(* A hot loop (50 trips, so traces form) with a mid-block [write_int],
   a load and store for JASan to check and an indirect call; then a
   second hot loop whose repeated load lets JASan's trace elision drop
   checks, so its elided plans run too. *)
let fuel_sweep_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"fsweep" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    ~datas:[ data "buf" [ Dspace 16 ]; data "fp" [ Dfuncptr "bump" ] ]
    [
      func "bump" [ addi Reg.r2 3; ret ];
      func "main"
        ([
           addr_of_data ~pic:false Reg.r6 "buf";
           addr_of_data ~pic:false Reg.r3 "fp";
           ld Reg.r4 (mem_b ~disp:0 Reg.r3);
           movi Reg.r5 0;
           movi Reg.r2 0;
           label "loop";
           cmpi Reg.r5 50;
           jcc Insn.Ge "done";
           add Reg.r2 Reg.r5;
           st (mem_b ~disp:0 Reg.r6) Reg.r2;
           mov Reg.r0 Reg.r2;
           syscall Sysno.write_int;
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           call_reg Reg.r4;
           addi Reg.r5 1;
           jmp "loop";
           label "done";
           movi Reg.r5 0;
           label "loop2";
           cmpi Reg.r5 40;
           jcc Insn.Ge "done2";
           ld Reg.r1 (mem_b ~disp:4 Reg.r6);
           add Reg.r2 Reg.r1;
           ld Reg.r1 (mem_b ~disp:4 Reg.r6);
           addi Reg.r5 1;
           jmp "loop2";
           label "done2";
           mov Reg.r0 Reg.r2;
           syscall Sysno.write_int;
         ]
        @ Progs.exit0);
    ]

(* Every fuel budget from 0 to the program's native instruction count
   must stop every configuration exactly where [Vm.run] stops: a fused
   block runs only when the budget covers all of it, so a block that
   would cross the budget runs instruction by instruction and
   Out_of_fuel fires at icount = fuel. *)
let test_fuel_boundary_sweep () =
  let m = fuel_sweep_prog () in
  let full = run_native m in
  Alcotest.(check bool) "native exits" true (full.status = Jt_vm.Vm.Exited 0);
  List.iter
    (fun (name, jasan, trace) ->
      Jt_metrics.Metrics.Counters.reset ();
      let _, engine = run_config ~jasan ~trace m in
      if trace then
        Alcotest.(check bool) (name ^ ": traces run") true
          ((Jt_dbt.Dbt.stats engine).st_trace_execs > 0);
      if jasan && trace then
        Alcotest.(check bool) (name ^ ": elided plans run") true
          ((Jt_metrics.Metrics.Counters.current ()).c_san_trace_elide_streak
          > 0);
      for fuel = 0 to full.icount do
        let native = run_native ~fuel m in
        let vm, _ = run_config ~jasan ~trace ~fuel m in
        if fuel < full.icount then
          Alcotest.(check bool) "native out of fuel" true
            (native.status = Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
            && native.icount = fuel);
        Alcotest.(check string)
          (Printf.sprintf "%s, fuel %d" name fuel)
          (machine_state native) (machine_state vm)
      done)
    configs

(* A loop of 64 trips whose block [x] runs on trips 31 and 63 only.
   Trip 31 is the one the trace over the loop head records, so [x] is
   first run inside that recording and becomes a constituent; trip 40
   then runs [Dbt.young_blocks] + 8 blocks for the first time, and trip
   63 runs [x] again, inside the trace. *)
let young_constituent_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"youngtr" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    ~datas:[ data "buf" [ Dspace 16 ] ]
    [
      func "fresh"
        (List.concat
           (List.init (Jt_dbt.Dbt.young_blocks + 8) (fun i ->
                let l = Printf.sprintf "f%d" i in
                [ cmpi Reg.r5 0; jcc Insn.Eq l; label l ]))
        @ [ ret ]);
      func "main"
        ([
           addr_of_data ~pic:false Reg.r6 "buf";
           movi Reg.r5 0;
           movi Reg.r2 0;
           label "loop";
           cmpi Reg.r5 64;
           jcc Insn.Ge "done";
           mov Reg.r3 Reg.r5;
           andi Reg.r3 31;
           cmpi Reg.r3 31;
           jcc Insn.Ne "skip";
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           add Reg.r2 Reg.r1;
           addi Reg.r2 1;
           addi Reg.r2 2;
           jmp "skip";
           label "skip";
           cmpi Reg.r5 40;
           jcc Insn.Ne "next";
           call "fresh";
           label "next";
           ld Reg.r1 (mem_b ~disp:4 Reg.r6);
           add Reg.r2 Reg.r1;
           addi Reg.r5 1;
           jmp "loop";
           label "done";
           mov Reg.r0 Reg.r2;
           syscall Sysno.write_int;
         ]
        @ Progs.exit0);
    ]

(* A block first run inside a recording keeps its payload, though many
   blocks end their first execution before its second: an overlay runs
   the trace's constituents without rebuilding them.  Every fuel budget
   stops the JASan configurations, whose traces carry overlays, where
   [Vm.run] stops. *)
let test_young_constituent () =
  let m = young_constituent_prog () in
  let full = run_native m in
  Alcotest.(check string) "native output" "6\n" (Jt_vm.Vm.output full);
  List.iter
    (fun (name, jasan, trace) ->
      if jasan && trace then
        for fuel = 0 to full.icount do
          let native = run_native ~fuel m in
          let vm, _ = run_config ~jasan ~trace ~fuel m in
          Alcotest.(check string)
            (Printf.sprintf "%s, fuel %d" name fuel)
            (machine_state native) (machine_state vm)
        done)
    configs

(* A loop whose body block carries two mid-block syscalls: a
   [write_int], which must not cut the block short, and syscall 100,
   which a hook turns into an exit on trip [exit_trip].  Nothing after
   the exiting syscall may retire. *)
let mid_syscall_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"midsys" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    ~datas:[ data "buf" [ Dspace 16 ] ]
    [
      func "main"
        ([
           addr_of_data ~pic:false Reg.r6 "buf";
           movi Reg.r5 0;
           label "loop";
           cmpi Reg.r5 1000;
           jcc Insn.Ge "done";
           st (mem_b ~disp:0 Reg.r6) Reg.r5;
           mov Reg.r0 Reg.r5;
           syscall Sysno.write_int;
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           mov Reg.r0 Reg.r5;
           syscall 100;
           addi Reg.r5 1;
           st (mem_b ~disp:4 Reg.r6) Reg.r5;
           jmp "loop";
           label "done";
         ]
        @ Progs.exit0);
    ]

let exit_on_trip trip vm =
  Jt_vm.Vm.set_syscall_hook vm 100 (fun vm ->
      if Jt_vm.Vm.get vm Jt_isa.Reg.r0 = trip then
        vm.Jt_vm.Vm.status <- Jt_vm.Vm.Exited trip)

let test_mid_block_syscall () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  (* one block: [...; syscall exit; addi ...; jmp ...] *)
  let straight =
    build ~name:"exitmid" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      ~datas:[ data "buf" [ Dspace 16 ] ]
      [
        func "main"
          [
            label "top";
            addr_of_data ~pic:false Reg.r6 "buf";
            movi Reg.r0 5;
            st (mem_b ~disp:0 Reg.r6) Reg.r0;
            syscall Sysno.write_int;
            ld Reg.r1 (mem_b ~disp:0 Reg.r6);
            movi Reg.r0 0;
            syscall Sysno.exit_;
            addi Reg.r0 1;
            st (mem_b ~disp:0 Reg.r6) Reg.r0;
            jmp "top";
          ];
      ]
  in
  let native = run_native straight in
  Alcotest.(check string) "native output" "5\n" (Jt_vm.Vm.output native);
  List.iter
    (fun (name, jasan, trace) ->
      let vm, engine = run_config ~jasan ~trace straight in
      Alcotest.(check string) (name ^ ": exit mid-block")
        (machine_state native) (machine_state vm);
      (* [_init]'s [ret] and main's one block *)
      let s = Jt_dbt.Dbt.stats engine in
      Alcotest.(check int) (name ^ ": two blocks") 2
        (s.st_blocks_static + s.st_blocks_dynamic))
    configs;
  (* Exit on the first execution of the body block, on its second (no
     trace yet) and on trip 45, inside a trace. *)
  let m = mid_syscall_prog () in
  List.iter
    (fun trip ->
      let setup = exit_on_trip trip in
      let native = run_native ~setup m in
      Alcotest.(check bool) "native exits on the trip" true
        (native.status = Jt_vm.Vm.Exited trip
        && Jt_vm.Vm.get native Reg.r5 = trip);
      List.iter
        (fun (name, jasan, trace) ->
          let vm, engine = run_config ~jasan ~trace ~setup m in
          let name = Printf.sprintf "%s, exit on trip %d" name trip in
          Alcotest.(check string) name (machine_state native)
            (machine_state vm);
          let s = Jt_dbt.Dbt.stats engine in
          (* [_init], main's entry (which holds the first loop test),
             the body and, once the back edge runs, the loop head: the
             write_int cut nothing *)
          Alcotest.(check int) (name ^ ": blocks")
            (if trip = 0 then 3 else 4)
            (s.st_blocks_static + s.st_blocks_dynamic);
          if trace && trip = 45 then
            Alcotest.(check bool) (name ^ ": exits inside a trace") true
              (s.st_traces_built >= 1 && s.st_trace_execs >= 5))
        configs)
    [ 0; 1; 45 ]

(* An empty (decode-faulting) cached block sits at exactly its start
   address; flush invalidation must treat it as length 1 so regenerating
   code over it retranslates instead of replaying the stale fault. *)
let test_decode_fault_block_invalidated () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let m =
    build ~name:"efault" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0;
             call_reg Reg.r6 (* nothing written yet: decode fault *);
             call_import "print_int";
           ]
          @ Progs.exit0);
      ]
  in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"efault";
  Jt_dbt.Dbt.run engine;
  let jit = fst Jt_vm.Vm.jit_region in
  Alcotest.(check bool) "first call decode-faults" true
    (vm.status = Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault jit));
  (* write real code over the faulting address and flush the range *)
  let code = Progs.encode_at jit [ Insn.Mov (Reg.r0, Insn.Imm 5); Insn.Ret ] in
  String.iteri
    (fun i c -> Jt_mem.Memory.write8 vm.mem (jit + i) (Char.code c))
    code;
  Jt_vm.Vm.flush_range vm jit 64;
  vm.status <- Jt_vm.Vm.Running;
  Jt_dbt.Dbt.run engine;
  Alcotest.(check string) "sees regenerated code" "5\n" (Jt_vm.Vm.output vm);
  Alcotest.(check bool) "exits cleanly after regen" true
    (vm.status = Jt_vm.Vm.Exited 0)

(* The engines compared with [Vm.run] by the decode-path tests: the null
   DBT, JASan dyn-only and JCFI hybrid (its rules from a static analysis
   of the program's closure). *)
let null_engine ~registry:_ ~main:_ vm = Jt_dbt.Dbt.create ~vm ()

let jasan_dyn_engine ~registry:_ ~main:_ vm =
  let tool, _ = Jt_jasan.Jasan.create () in
  let engine = Jt_dbt.Dbt.create ~vm ~client:tool.t_client () in
  tool.t_setup vm ~rules_for:(fun _ -> None);
  engine

let jcfi_hybrid_engine ~registry ~main vm =
  let tool, _ = Jt_jcfi.Jcfi.create () in
  let files =
    Janitizer.Driver.analyze_all ~tool
      (Janitizer.Driver.static_closure ~registry ~main)
  in
  let rules_for name = List.assoc_opt name files in
  let engine = Jt_dbt.Dbt.create ~vm ~client:tool.t_client ~rules_for () in
  tool.t_setup vm ~rules_for;
  engine

let decode_engines =
  [ ("null", null_engine); ("jasan dyn-only", jasan_dyn_engine);
    ("jcfi hybrid", jcfi_hybrid_engine) ]

(* Boot [main] under [engine_for] and run it. *)
let run_engine engine_for ~registry ~main =
  let vm = Jt_vm.Vm.make ~registry () in
  let engine = engine_for ~registry ~main vm in
  Jt_vm.Vm.boot vm ~main;
  Jt_dbt.Dbt.run engine;
  vm

(* The DBT builds its blocks through [Vm.decode]: under every client its
   machine's decode table stays empty, while [Vm.run] of the same
   program fills it. *)
let test_no_decode_table_writes () =
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2") in
  let fz =
    Jt_fuzz.Fuzz.build (List.hd (Jt_fuzz.Fuzz.cases_of ~base_seed:1 ~seeds:1))
  in
  List.iter
    (fun (registry, main) ->
      let native = Jt_vm.Vm.make ~registry () in
      Jt_vm.Vm.boot native ~main;
      Jt_vm.Vm.run native;
      Alcotest.(check bool) (main ^ ": Vm.run fills the table") true
        (Jt_vm.Vm.decoded_spans native <> []);
      List.iter
        (fun (name, engine_for) ->
          let vm = run_engine engine_for ~registry ~main in
          let name = main ^ ", " ^ name in
          Alcotest.(check int) (name ^ ": icount") native.icount vm.icount;
          Alcotest.(check int) (name ^ ": decode table") 0
            (List.length (Jt_vm.Vm.decoded_spans vm)))
        decode_engines)
    [ (w.w_registry, w.w_sheet.s_name); ([ fz; Jt_workloads.Stdlibs.libc ], fz.name) ]

(* JIT code computing [r0 := a + b]; its second instruction, the add,
   starts [jit_mid] bytes in. *)
let jit_add a b =
  let open Jt_isa in
  Insn.[ Mov (Reg.r0, Imm a); Binop (Add, Reg.r0, Imm b); Ret ]

let jit_mid = Jt_isa.(Encode.length (Insn.Mov (Reg.r0, Insn.Imm 0)))

(* A JIT program: write [jit_add 1 100] into fresh code memory and call
   it ([warm]: twice, so [Vm.run] keeps its entries and the engines fuse
   its block); rewrite it to [jit_add 2 200] ([flush]: with a
   [cache_flush]) and call it again; then set [r0 := 5] and call the add
   in the middle of the block translated for the second call. *)
let jit_rewrite_prog ~name ~flush ~warm =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let jit = fst Jt_vm.Vm.jit_region in
  let call_print = [ call_reg Reg.r6; syscall Sysno.write_int ] in
  let flushed =
    if flush then [ mov Reg.r0 Reg.r6; movi Reg.r1 64; syscall Sysno.cache_flush ]
    else []
  in
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "main"
        ([ movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
        @ Progs.store_code (Progs.encode_at jit (jit_add 1 100))
        @ call_print
        @ (if warm then call_print else [])
        @ Progs.store_code (Progs.encode_at jit (jit_add 2 200))
        @ flushed @ call_print
        @ [ movi Reg.r0 5; mov Reg.r7 Reg.r6; addi Reg.r7 jit_mid; call_reg Reg.r7;
            syscall Sysno.write_int ]
        @ Progs.exit0);
    ]

(* A loop whose header lies inside main's first block: the back edge
   builds a second block over instructions the first one already
   decoded. *)
let inner_header_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"innerhead" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r5 0;
           movi Reg.r2 0;
           label "loop";
           add Reg.r2 Reg.r5;
           addi Reg.r5 1;
           cmpi Reg.r5 20;
           jcc Insn.Lt "loop";
           mov Reg.r0 Reg.r2;
           syscall Sysno.write_int;
         ]
        @ Progs.exit0);
    ]

(* The null DBT with chaining, the IBL and traces off, and a client
   that records every block it is handed and counts the executions of
   blocks ending in an indirect transfer.  The client is handed a block
   again when its payload is rebuilt at its second execution, so the
   translations are counted from the trace's [Block_translate] events.
   The cycles are then the native cycles plus each translation's charge
   plus one [p_indirect] per such execution. *)
let run_recorded m =
  let built = ref [] and indirect_execs = ref 0 in
  let count = Some (fun _ -> incr indirect_execs) in
  let on_block _ (b : Jt_dbt.Dbt.block) _ ~rules_at:_ =
    built := b :: !built;
    let plan = Jt_dbt.Dbt.no_plan b in
    let n = Array.length b.insns in
    (if n > 0 then
       let _, last, _ = b.insns.(n - 1) in
       match Jt_isa.Insn.cti_kind last with
       | Some (Cti_jmp_ind | Cti_call_ind | Cti_ret) ->
         plan.(0) <- [ { m_cost = 0; m_action = count; m_kind = M_opaque } ]
       | _ -> ());
    plan
  in
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  let engine =
    Jt_dbt.Dbt.create ~vm ~chain:false ~ibl:false ~trace:false
      ~client:{ cl_on_block = on_block } ()
  in
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Jt_trace.Trace.enable ~capacity:1_000_000 ();
  Jt_dbt.Dbt.run engine;
  let translated =
    List.filter_map
      (function
        | Jt_trace.Trace.Block_translate { insns; _ } -> Some insns | _ -> None)
      (Jt_trace.Trace.events ())
  in
  Jt_trace.Trace.disable ();
  let p = Jt_dbt.Dbt.dynamorio in
  let overhead =
    List.fold_left
      (fun acc insns -> acc + p.p_translate_block + (p.p_translate_insn * insns))
      (p.p_indirect * !indirect_execs)
      translated
  in
  (vm, engine, List.rev !built, overhead)

(* Whether some block starts strictly inside the span of an earlier
   one: the re-decode a shared decode table used to serve. *)
let enters_mid_block built =
  let span (b : Jt_dbt.Dbt.block) =
    let n = Array.length b.insns in
    if n = 0 then (b.bb_addr, b.bb_addr)
    else
      let a, _, l = b.insns.(n - 1) in
      (b.bb_addr, a + l)
  in
  let rec go seen = function
    | [] -> false
    | (b : Jt_dbt.Dbt.block) :: rest ->
      List.exists (fun (lo, hi) -> lo < b.bb_addr && b.bb_addr < hi) seen
      || go (span b :: seen) rest
  in
  go [] built

let check_entry_accounting name engine =
  let s = Jt_dbt.Dbt.stats engine in
  Alcotest.(check int) (name ^ ": entry accounting") s.st_block_execs
    (s.st_dispatch_entries + s.st_chain_hits + s.st_ibl_hits
   + s.st_trace_interior)

(* Blocks that re-decode instructions an earlier block decoded: a loop
   header inside main's first block, and a JIT block rewritten and
   flushed, then entered in its middle.  Every configuration retires
   exactly what [Vm.run] retires, and the recorded null DBT's cycles are
   native plus the modelled translation and dispatch charges. *)
let test_redecode () =
  List.iter
    (fun (m, expected) ->
      let mname = m.Jt_obj.Objfile.name in
      let native = run_native m in
      Alcotest.(check string) (mname ^ ": native output") expected
        (Jt_vm.Vm.output native);
      Alcotest.(check bool) (mname ^ ": native exits") true
        (native.status = Jt_vm.Vm.Exited 0);
      List.iter
        (fun (name, jasan, trace) ->
          let vm, engine = run_config ~jasan ~trace m in
          let name = mname ^ ", " ^ name in
          Alcotest.(check string) name (machine_state native) (machine_state vm);
          check_entry_accounting name engine)
        configs;
      let vm, engine, built, overhead = run_recorded m in
      let name = mname ^ ", recorded" in
      Alcotest.(check string) name (machine_state native) (machine_state vm);
      Alcotest.(check bool) (name ^ ": a block starts inside another") true
        (enters_mid_block built);
      Alcotest.(check int) (name ^ ": cycles") (native.cycles + overhead)
        vm.cycles;
      check_entry_accounting name engine)
    [
      (inner_header_prog (), "190\n");
      (jit_rewrite_prog ~name:"jitmid" ~flush:true ~warm:false, "101\n202\n205\n");
    ]

(* Run [m] under the reference loop, which decodes memory at every
   step; [on_step] sees each PC. *)
let run_ref ?on_step m =
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
  Ref_step.run ?on_step vm;
  vm

(* [m] ends in the same machine state under the reference loop,
   [Vm.run] and every engine configuration, with the output
   [expected]. *)
let check_agreement m expected =
  let mname = m.Jt_obj.Objfile.name in
  let reference = run_ref m in
  Alcotest.(check string) (mname ^ ": reference output") expected
    (Jt_vm.Vm.output reference);
  let native = run_native m in
  Alcotest.(check string) (mname ^ ": Vm.run") (machine_state reference)
    (machine_state native);
  Alcotest.(check int) (mname ^ ": Vm.run cycles") reference.cycles native.cycles;
  List.iter
    (fun (name, jasan, trace) ->
      let vm, engine = run_config ~jasan ~trace m in
      let name = mname ^ ", " ^ name in
      Alcotest.(check string) name (machine_state reference) (machine_state vm);
      check_entry_accounting name engine)
    configs

(* JIT code [mov r0, 5; ret], called, then with only the immediate of
   its [mov] overwritten by a store of 9, called again. *)
let imm_patch_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let jit = fst Jt_vm.Vm.jit_region in
  let e = Encode.encode ~at:0 (Insn.Mov (Reg.r0, Insn.Imm 0x1122_3344)) in
  let rec find i = if String.sub e i 4 = "\x44\x33\x22\x11" then i else find (i + 1) in
  let imm = find 1 in
  let call_print = [ call_reg Reg.r6; syscall Sysno.write_int ] in
  build ~name:"jitimm" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "main"
        ([ movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
        @ Progs.store_code (Progs.encode_at jit Insn.[ Mov (Reg.r0, Imm 5); Ret ])
        @ call_print
        @ [ movi Reg.r1 9; st (mem_b ~disp:imm Reg.r6) Reg.r1 ]
        @ call_print @ Progs.exit0);
    ]

(* A store into code drops what was decoded or translated from the
   bytes it overwrote, with or without a [cache_flush]: the rewritten
   JIT code, entered at its start and then in its middle, runs the new
   bytes under the reference, [Vm.run] and every engine configuration
   alike, whether the old code ran once (a young decode, a young block)
   or twice (a kept decode-table entry, a fused block).  A store into
   the middle of an instruction run once drops its young decode too. *)
let test_unflushed_store () =
  List.iter
    (fun (flush, warm) ->
      check_agreement
        (jit_rewrite_prog
           ~name:((if flush then "jitflush" else "jitstale") ^ if warm then "w" else "")
           ~flush ~warm)
        (if warm then "101\n101\n202\n205\n" else "101\n202\n205\n"))
    [ (false, false); (true, false); (false, true); (true, true) ];
  check_agreement (imm_patch_prog ()) "5\n9\n"

(* JIT code that patches the immediate of its own [mov r0, imm] to [r1]
   before it runs it, after touching bytes of the same block it already
   ran: it stores the first word of its code back unchanged or
   ([flush]) flushes it.  The first hit drops the running block from the
   code cache; the second, past the PC, must still cut it.  The code
   writes through [r3], which a table gives per call: a data area for
   every call but call [patch_at] of [calls], whose [r3] is the code
   itself.  So the routine runs unpatched until traces form over the
   calling loop, and is patched inside a live trace.  Prints the sum of
   the [calls] results, [7 * (calls - patch_at)]. *)
let self_patch_calls = 44

let self_patch_at = 40

let self_patch_prog ~flush =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let jit = fst Jt_vm.Vm.jit_region in
  let mov0 = Insn.Mov (Reg.r0, Insn.Imm 0x1122_3344) in
  let head disp =
    (if flush then
       [ Insn.Mov (Reg.r0, Insn.Reg Reg.r3); Insn.Mov (Reg.r2, Insn.Reg Reg.r1);
         Insn.Mov (Reg.r1, Insn.Imm 4); Insn.Syscall Sysno.cache_flush ]
     else
       [ Insn.Load (Insn.W4, Reg.r2, Insn.mem_base Reg.r3);
         Insn.Store (Insn.W4, Insn.mem_base Reg.r3, Insn.Reg Reg.r2);
         Insn.Mov (Reg.r2, Insn.Reg Reg.r1) ])
    @ [ Insn.Store (Insn.W4, Insn.mem_base ~disp Reg.r3, Insn.Reg Reg.r2) ]
  in
  let imm_in_mov =
    let e = Encode.encode ~at:0 mov0 in
    let rec find i = if String.sub e i 4 = "\x44\x33\x22\x11" then i else find (i + 1) in
    find 0
  in
  let size insns = List.fold_left (fun n i -> n + Encode.length i) 0 insns in
  let disp = size (head 0x40) + imm_in_mov in
  assert (size (head disp) = size (head 0x40));
  let code = Progs.encode_at jit (head disp @ [ Insn.Mov (Reg.r0, Insn.Imm 0); Insn.Ret ]) in
  assert (String.length code < 0x40);
  let table = 0x100 and data = 0x300 in
  build ~name:(if flush then "selfflush" else "selfpatch")
    ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "main"
        ([ movi Reg.r0 0x400; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
        @ Progs.store_code code
        @ [
            (* the table: the data area for every call, the code for one *)
            mov Reg.r4 Reg.r6; addi Reg.r4 table;
            mov Reg.r3 Reg.r6; addi Reg.r3 data;
            movi Reg.r5 0;
            label "fill";
            st (mem_b Reg.r4) Reg.r3; addi Reg.r4 4; addi Reg.r5 1;
            cmpi Reg.r5 self_patch_calls; jcc Insn.Lt "fill";
            st (mem_b ~disp:(table + (4 * self_patch_at)) Reg.r6) Reg.r6;
            mov Reg.r4 Reg.r6; addi Reg.r4 table;
            movi Reg.r5 0; movi Reg.r7 0;
            label "loop";
            ld Reg.r3 (mem_b Reg.r4); addi Reg.r4 4; movi Reg.r1 7;
            call_reg Reg.r6;
            add Reg.r7 Reg.r0; addi Reg.r5 1;
            cmpi Reg.r5 self_patch_calls; jcc Insn.Lt "loop";
            mov Reg.r0 Reg.r7; syscall Sysno.write_int;
          ]
        @ Progs.exit0);
    ]

(* A store (or a flush) into the rest of the running block cuts the
   block there, also when an earlier hit behind the PC already dropped
   it, and also inside a live trace: the engines run the patched
   instruction, as the reference and [Vm.run] do. *)
let test_self_patch () =
  List.iter
    (fun flush ->
      let m = self_patch_prog ~flush in
      check_agreement m
        (Printf.sprintf "%d\n" (7 * (self_patch_calls - self_patch_at)));
      List.iter
        (fun (name, jasan, trace) ->
          if trace then
            let _, engine = run_config ~jasan ~trace m in
            Alcotest.(check bool)
              (m.Jt_obj.Objfile.name ^ ", " ^ name ^ ": a trace ran")
              true
              ((Jt_dbt.Dbt.stats engine).st_trace_execs > 0))
        configs)
    [ false; true ]

(* [f] runs, then [blocks] blocks of straight-line code run once each,
   then [f] runs again. *)
let far_second_prog ~blocks =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"farsecond" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "f" [ addi Reg.r1 1; ret ];
      func "main"
        ([ movi Reg.r1 0; call "f" ]
        @ List.concat
            (List.init blocks (fun i ->
                 let l = Printf.sprintf "b%d" i in
                 [ cmpi Reg.r1 0; jcc Insn.Eq l; label l ]))
        @ [ call "f"; mov Reg.r0 Reg.r1; syscall Sysno.write_int ]
        @ Progs.exit0);
    ]

(* The client is handed a block at its translation, and again when the
   payload dropped after its first execution is rebuilt at its second:
   with traces off (a recording keeps its blocks' payloads), a block is
   planned twice exactly when [young_blocks] other blocks ended their
   first execution between its first and its second. *)
let test_second_execution () =
  let once = ref false and kept = ref false and rebuilt = ref false in
  List.iter
    (fun m ->
      let planned = Hashtbl.create 64 and execs = Hashtbl.create 64 in
      let count tbl a = Option.value ~default:0 (Hashtbl.find_opt tbl a) in
      let bump tbl a = Hashtbl.replace tbl a (1 + count tbl a) in
      let client =
        {
          Jt_dbt.Dbt.cl_on_block =
            (fun _ b _ ~rules_at:_ ->
              bump planned b.bb_addr;
              Jt_dbt.Dbt.no_plan b);
        }
      in
      let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
      let engine = Jt_dbt.Dbt.create ~vm ~client ~trace:false () in
      Jt_vm.Vm.boot vm ~main:m.Jt_obj.Objfile.name;
      Jt_trace.Trace.enable ~capacity:1_000_000 ();
      Jt_dbt.Dbt.run engine;
      let events = Jt_trace.Trace.events () in
      Jt_trace.Trace.disable ();
      (* the young blocks, replayed: a ring of first executions *)
      let ring = Array.make Jt_dbt.Dbt.young_blocks (-1) and next = ref 0 in
      let dropped = Hashtbl.create 64 and expected = Hashtbl.create 64 in
      List.iter
        (function
          | Jt_trace.Trace.Block_exec { pc } ->
            bump execs pc;
            (match count execs pc with
            | 1 ->
              Hashtbl.replace expected pc 1;
              let o = ring.(!next) in
              if o >= 0 && count execs o = 1 then Hashtbl.replace dropped o ();
              ring.(!next) <- pc;
              next := (!next + 1) mod Jt_dbt.Dbt.young_blocks
            | 2 ->
              if Hashtbl.mem dropped pc then begin
                rebuilt := true;
                Hashtbl.replace expected pc 2
              end
              else kept := true
            | _ -> ())
          | _ -> ())
        events;
      Hashtbl.iter
        (fun a n ->
          if n = 1 then once := true;
          Alcotest.(check int)
            (Printf.sprintf "%s: 0x%x run %d times" m.Jt_obj.Objfile.name a n)
            (Hashtbl.find expected a) (count planned a))
        execs)
    [ Progs.sum_prog (); Progs.indirect_prog (); Progs.dlopen_prog ();
      far_second_prog ~blocks:(Jt_dbt.Dbt.young_blocks + 8) ];
  Alcotest.(check bool) "some block runs once" true !once;
  Alcotest.(check bool) "some block runs again while young" true !kept;
  Alcotest.(check bool) "some block runs again after leaving the young" true
    !rebuilt

(* A [cache_flush] whose range runs past 0xFFFF_FFFF wraps to address 0
   and retires the code there too, under [Vm.run] and the DBT alike. *)
let test_flush_wraps () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let low = 0x10 in
  let m =
    build ~name:"wrapfl" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([ movi Reg.r6 low ]
          @ Progs.store_code (Progs.encode_at low (jit_add 1 0))
          @ [ call_reg Reg.r6; syscall Sysno.write_int ]
          @ Progs.store_code (Progs.encode_at low (jit_add 2 0))
          @ [
              movi Reg.r0 0xFFFF_F000; movi Reg.r1 0x2000; syscall Sysno.cache_flush;
              call_reg Reg.r6; syscall Sysno.write_int;
            ]
          @ Progs.exit0);
      ]
  in
  let native = run_native m in
  Alcotest.(check string) "native sees the rewrite" "1\n2\n"
    (Jt_vm.Vm.output native);
  List.iter
    (fun (name, jasan, trace) ->
      let vm, _ = run_config ~jasan ~trace m in
      Alcotest.(check string) name (machine_state native) (machine_state vm))
    configs

let test_flush_cost () =
  let m = Progs.jit_prog () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:m.name;
  Jt_dbt.Dbt.run engine;
  Alcotest.(check bool) "exits" true (vm.status = Jt_vm.Vm.Exited 0);
  Progs.check_flush_cost vm ~spans:(fun () -> Jt_dbt.Dbt.block_spans engine)

(* -- straddling instructions -- *)

(* 37 bytes of position-independent code computing
   [r0 := 7 + 0x100 + 0x55 = 348] through a stack slot, with instructions of
   6, 6, 12, 9, 3 and 1 bytes. *)
let straddle_code =
  let open Jt_isa in
  let slot = Insn.mem_base ~disp:(-64) Reg.sp in
  Insn.
    [
      Mov (Reg.r0, Imm 7);
      Binop (Add, Reg.r0, Imm 0x100);
      Store (W4, slot, Imm 0x55);
      Load (W4, Reg.r1, slot);
      Binop (Add, Reg.r0, Reg Reg.r1);
      Ret;
    ]

let straddle_len =
  List.fold_left (fun n i -> n + Jt_isa.Encode.length i) 0 straddle_code

(* A program that copies [straddle_code] to each address of [places]
   (flushing the copy's range, which may wrap), calls it and prints
   [r0]. *)
let straddle_prog ~name ~mmap places =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "main"
        ([ movi Reg.r0 mmap; syscall Sysno.mmap_code ]
        @ List.concat_map
            (fun a ->
              [ movi Reg.r6 a ]
              @ Progs.store_code (Progs.encode_at a straddle_code)
              @ [
                  mov Reg.r0 Reg.r6; movi Reg.r1 straddle_len;
                  syscall Sysno.cache_flush; call_reg Reg.r6;
                  syscall Sysno.write_int;
                ])
            places
        @ Progs.exit0);
    ]

let straddle_out places =
  String.concat "" (List.map (fun _ -> "348\n") places)

(* [Vm.run] and every decode engine end [main] in the same state, but for
   the [cfi_flags] violations JCFI reports. *)
let check_straddle_runs ?(cfi_flags = 0) ~registry ~main expected =
  let native = Jt_vm.Vm.make ~registry () in
  Jt_vm.Vm.boot native ~main;
  Jt_vm.Vm.run native;
  Alcotest.(check string) (main ^ ": native output") expected
    (Jt_vm.Vm.output native);
  Alcotest.(check bool) (main ^ ": native exits") true
    (native.status = Jt_vm.Vm.Exited 0);
  List.iter
    (fun (engine, engine_for) ->
      let vm = run_engine engine_for ~registry ~main in
      let name = main ^ ", " ^ engine in
      Alcotest.(check int) (name ^ ": violations")
        (if String.equal engine "jcfi hybrid" then cfi_flags else 0)
        (List.length vm.violations);
      vm.violations <- [];
      Alcotest.(check string) name (machine_state native) (machine_state vm))
    decode_engines

(* The copy at [page_end - k], for every [k] from 1 to the code's length:
   each instruction boundary, and each byte inside an instruction, meets
   a 4 KiB page boundary once. *)
let test_straddle_page () =
  let base = fst Jt_vm.Vm.jit_region in
  let places =
    List.init straddle_len (fun k -> base + ((k + 1) * 0x1000) - (k + 1))
  in
  let m =
    straddle_prog ~name:"strpage" ~mmap:((straddle_len + 1) * 0x1000) places
  in
  check_straddle_runs ~registry:[ m ] ~main:"strpage" (straddle_out places)

(* The copy at [2^32 - k]: it wraps to address 0, and the PC after the
   straddling instruction runs past 0xFFFF_FFFF, under every engine
   alike.  The code lies outside every module and the JIT region, so
   JCFI flags each call to it. *)
let test_straddle_top () =
  let places = List.init straddle_len (fun k -> (1 lsl 32) - (k + 1)) in
  let m = straddle_prog ~name:"strtop" ~mmap:64 places in
  check_straddle_runs ~cfi_flags:straddle_len ~registry:[ m ] ~main:"strtop"
    (straddle_out places)

(* [m] with its code section cut in two abutting sections, inside the
   first instruction of at least 6 bytes from the entry on. *)
let split_code m =
  let d = Jt_disasm.Disasm.run m in
  let entry = Option.get m.Jt_obj.Objfile.entry in
  let a =
    Hashtbl.fold
      (fun a (i : Jt_disasm.Disasm.insn_info) acc ->
        if a >= entry && i.d_len >= 6 then min a acc else acc)
      d.insns max_int
  in
  let straddler = (a, Hashtbl.find d.insns a) in
  let cut = a + 3 in
  let split (s : Jt_obj.Section.t) =
    if Jt_obj.Section.contains s cut then
      let clip lo hi =
        List.filter_map
          (fun (v, n) ->
            let v' = max v lo and e = min (v + n) hi in
            if v' < e then Some (v', e - v') else None)
          s.truth_code_ranges
      in
      let k = cut - s.vaddr in
      [
        Jt_obj.Section.make ~truth_code_ranges:(clip s.vaddr cut) ~name:s.name
          ~vaddr:s.vaddr ~is_code:true (String.sub s.data 0 k);
        Jt_obj.Section.make
          ~truth_code_ranges:(clip cut (Jt_obj.Section.end_vaddr s))
          ~name:(s.name ^ ".2") ~vaddr:cut ~is_code:true
          (String.sub s.data k (String.length s.data - k));
      ]
    else [ s ]
  in
  ({ m with sections = List.concat_map split m.sections }, straddler)

let insn_list (d : Jt_disasm.Disasm.t) =
  Hashtbl.fold (fun a (i : Jt_disasm.Disasm.insn_info) acc -> (a, i) :: acc) d.insns []
  |> List.sort compare

(* An instruction across two abutting code sections decodes as one
   instruction statically and at run time: [Disasm.run] finds every
   instruction of the uncut module with the same decode (the second
   section's start is one more seed), and the cut module runs exactly
   as the uncut one under every engine. *)
let test_straddle_sections () =
  let whole = inner_header_prog () in
  let m, (a, insn) = split_code whole in
  Alcotest.(check int) "one code section more"
    (List.length (Jt_obj.Objfile.code_sections whole) + 1)
    (List.length (Jt_obj.Objfile.code_sections m));
  let cut_d = Jt_disasm.Disasm.run m in
  (match Hashtbl.find_opt cut_d.insns a with
  | Some i ->
    Alcotest.(check bool) "straddler decodes whole" true
      (i.d_insn = insn.d_insn && i.d_len = insn.d_len)
  | None -> Alcotest.failf "no instruction at 0x%x" a);
  let cut = insn_list cut_d in
  List.iter
    (fun (a, i) ->
      if not (List.mem (a, i) cut) then Alcotest.failf "0x%x lost by the cut" a)
    (insn_list (Jt_disasm.Disasm.run whole));
  check_straddle_runs ~registry:[ m ] ~main:"innerhead" "190\n"

(* Any instruction, encoded so that it starts in the last 16 bytes of a
   page (or of the address space), decodes from memory as encoded. *)
let prop_straddle_decode =
  QCheck2.Test.make ~name:"decode at a page's last 16 bytes" ~count:300
    Gen_isa.gen_insn (fun i ->
      let vm = Jt_vm.Vm.make ~registry:[] () in
      List.for_all
        (fun page_end ->
          List.for_all
            (fun k ->
              let at = page_end - k in
              let code = Jt_isa.Encode.encode ~at i in
              Jt_mem.Memory.write_string vm.mem at code;
              match Jt_vm.Vm.decode vm at with
              | Some d -> d.d_insn = i && d.d_len = String.length code
              | None -> false)
            (List.init 16 (fun k -> k + 1)))
        [ 0x0040_1000; 1 lsl 32 ])

let test_lightweight_profile_cheaper () =
  let m = Progs.sum_prog ~n:100 () in
  let run profile =
    let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
    let engine = Jt_dbt.Dbt.create ~vm ~profile () in
    Jt_vm.Vm.boot vm ~main:"sum";
    Jt_dbt.Dbt.run engine;
    (Jt_vm.Vm.result vm).r_cycles
  in
  Alcotest.(check bool)
    "lightweight < dynamorio for translation-dominated runs" true
    (run Jt_dbt.Dbt.lightweight < run Jt_dbt.Dbt.dynamorio + 10_000)

(* The interpreter core allocates nothing per retired instruction: the
   page table and its word-wide accessors, the decode front and the
   compiled ops, the dispatch loop's sentinels, the plan-slot walk and
   JASan's paged shadow checks are all box-free.  Ops are compiled when
   an instruction is decoded, never when it retires.  Minor-heap words
   over one loop-heavy registry workload are a deterministic count, so a
   boxed value that creeps back onto the hot path fails here.  What
   remains is per-run and per-block set-up (tool set-up, the static pass
   and boot are outside the window; first-touch pages, decoding,
   compilation and translation are inside).  The hybrid runs cover the
   static-rule path. *)
let test_hot_path_allocation () =
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2") in
  let registry = w.w_registry and main = w.w_sheet.s_name in
  let words_per_insn run =
    let vm = Jt_vm.Vm.make ~registry () in
    let go = run vm in
    Jt_vm.Vm.boot vm ~main;
    let w0 = Gc.minor_words () in
    go ();
    let words = Gc.minor_words () -. w0 in
    (match vm.status with
    | Jt_vm.Vm.Exited 0 -> ()
    | s -> Alcotest.failf "bzip2: %a" Jt_vm.Vm.pp_status s);
    words /. float_of_int vm.icount
  in
  let native = words_per_insn (fun vm () -> Jt_vm.Vm.run vm) in
  let null =
    words_per_insn (fun vm ->
        let engine = Jt_dbt.Dbt.create ~vm () in
        fun () -> Jt_dbt.Dbt.run engine)
  in
  let under (tool : Janitizer.Tool.t) ~hybrid vm =
    let files =
      if hybrid then
        Janitizer.Driver.analyze_all ~tool
          (Janitizer.Driver.static_closure ~registry ~main)
      else []
    in
    let rules_for name = List.assoc_opt name files in
    let engine = Jt_dbt.Dbt.create ~vm ~client:tool.t_client ~rules_for () in
    tool.t_setup vm ~rules_for;
    fun () -> Jt_dbt.Dbt.run engine
  in
  (* JASan dyn-only: every load and store carries a shadow check *)
  let jasan =
    words_per_insn (under (fst (Jt_jasan.Jasan.create ())) ~hybrid:false)
  in
  let jasan_hybrid =
    words_per_insn (under (fst (Jt_jasan.Jasan.create ())) ~hybrid:true)
  in
  let jcfi_hybrid =
    words_per_insn (under (fst (Jt_jcfi.Jcfi.create ())) ~hybrid:true)
  in
  List.iter
    (fun (name, words) ->
      if words > 0.1 then
        Alcotest.failf "%s: %.3f minor words/insn > 0.1" name words)
    [ ("Vm.run", native); ("null DBT", null); ("JASan dyn-only DBT", jasan);
      ("JASan hybrid DBT", jasan_hybrid); ("JCFI hybrid DBT", jcfi_hybrid) ]

(* Per-run footprint: what one small program costs the major heap
   directly, from [Vm.make] through boot and the run.  Words allocated
   straight onto the major heap (blocks above the minor heap's 256-word
   limit: guest and shadow pages, and any table preallocated for a large
   program) are [major - promoted] in [Gc.counters]; they are what drives
   major collections when thousands of tiny programs go through one
   process.  One page is 513 words: the bound holds eight touched guest
   and shadow pages (the case touches five, plus two shadow pages under
   JASan) and nothing sized for a large program. *)
let test_per_run_footprint () =
  let m = Jt_fuzz.Fuzz.build (List.hd (Jt_fuzz.Fuzz.cases_of ~base_seed:1 ~seeds:1)) in
  let registry = [ m; Jt_workloads.Stdlibs.libc ] and main = m.name in
  let direct_major run =
    let _, p0, j0 = Gc.counters () in
    let vm = Jt_vm.Vm.make ~registry () in
    let go = run vm in
    Jt_vm.Vm.boot vm ~main;
    go ();
    let _, p1, j1 = Gc.counters () in
    (match vm.status with
    | Jt_vm.Vm.Exited _ -> ()
    | s -> Alcotest.failf "%s: %a" main Jt_vm.Vm.pp_status s);
    j1 -. j0 -. (p1 -. p0)
  in
  let native = direct_major (fun vm () -> Jt_vm.Vm.run vm) in
  let null =
    direct_major (fun vm ->
        let engine = Jt_dbt.Dbt.create ~vm () in
        fun () -> Jt_dbt.Dbt.run engine)
  in
  let jasan =
    direct_major (fun vm ->
        let tool, _ = Jt_jasan.Jasan.create () in
        let engine = Jt_dbt.Dbt.create ~vm ~client:tool.t_client () in
        tool.t_setup vm ~rules_for:(fun _ -> None);
        fun () -> Jt_dbt.Dbt.run engine)
  in
  let bound = 4096. in
  if native > bound then
    Alcotest.failf "Vm.run: %.0f direct-major words > %.0f" native bound;
  if null > bound then
    Alcotest.failf "null DBT: %.0f direct-major words > %.0f" null bound;
  if jasan > bound then
    Alcotest.failf "JASan dyn-only DBT: %.0f direct-major words > %.0f" jasan
      bound

let () =
  Alcotest.run "dbt"
    [
      ( "engine",
        [
          Alcotest.test_case "transparency" `Quick test_transparency;
          Alcotest.test_case "code-cache reuse" `Quick test_code_cache_reuse;
          Alcotest.test_case "jit dynamic blocks" `Quick test_jit_blocks_are_dynamic;
          Alcotest.test_case "cache flush" `Quick test_cache_flush_invalidation;
          Alcotest.test_case "profiles" `Quick test_lightweight_profile_cheaper;
          Alcotest.test_case "chaining" `Quick test_chaining_equivalent_and_cheaper;
          Alcotest.test_case "fuel mid-block" `Quick test_fuel_checked_mid_block;
          Alcotest.test_case "fuel boundary sweep" `Quick
            test_fuel_boundary_sweep;
          Alcotest.test_case "mid-block syscall" `Quick test_mid_block_syscall;
          Alcotest.test_case "empty-block invalidation" `Quick
            test_decode_fault_block_invalidated;
          Alcotest.test_case "hot path allocation" `Quick
            test_hot_path_allocation;
          Alcotest.test_case "per-run footprint" `Quick test_per_run_footprint;
          Alcotest.test_case "no decode-table writes" `Quick
            test_no_decode_table_writes;
          Alcotest.test_case "re-decode" `Quick test_redecode;
          Alcotest.test_case "unflushed store" `Quick test_unflushed_store;
          Alcotest.test_case "store into the running block" `Quick test_self_patch;
          Alcotest.test_case "second execution" `Quick test_second_execution;
          Alcotest.test_case "trace constituent first run in its recording"
            `Quick test_young_constituent;
          Alcotest.test_case "wrapped flush range" `Quick test_flush_wraps;
          Alcotest.test_case "flush cost" `Quick test_flush_cost;
        ] );
      ( "straddle",
        [
          Alcotest.test_case "page boundary" `Quick test_straddle_page;
          Alcotest.test_case "top of the address space" `Quick test_straddle_top;
          Alcotest.test_case "abutting sections" `Quick test_straddle_sections;
          QCheck_alcotest.to_alcotest prop_straddle_decode;
        ] );
    ]
