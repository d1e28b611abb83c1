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
  let gen value =
    List.fold_left
      (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
      ("", 0)
      [ Insn.Mov (Reg.r0, Insn.Imm value); Insn.Ret ]
    |> fst
  in
  let store_bytes code =
    List.concat
      (List.mapi
         (fun i c ->
           [
             movi Reg.r2 (Char.code c);
             I (Jt_asm.Sinsn.Sstore (Insn.W1, mem_b ~disp:i Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
           ])
         (List.init (String.length code) (String.get code)))
  in
  let m =
    build ~name:"regen" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([ movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
          @ store_bytes (gen 1)
          @ [
              mov Reg.r0 Reg.r6; movi Reg.r1 64; syscall Sysno.cache_flush;
              call_reg Reg.r6; call_import "print_int";
            ]
          @ store_bytes (gen 2)
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
  let code =
    List.fold_left
      (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
      ("", jit)
      [ Insn.Mov (Reg.r0, Insn.Imm 5); Insn.Ret ]
    |> fst
  in
  String.iteri
    (fun i c -> Jt_mem.Memory.write8 vm.mem (jit + i) (Char.code c))
    code;
  Jt_vm.Vm.flush_range vm jit 64;
  vm.status <- Jt_vm.Vm.Running;
  Jt_dbt.Dbt.run engine;
  Alcotest.(check string) "sees regenerated code" "5\n" (Jt_vm.Vm.output vm);
  Alcotest.(check bool) "exits cleanly after regen" true
    (vm.status = Jt_vm.Vm.Exited 0)

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
   remains is per-run and per-block set-up (tool set-up and boot are
   outside the window; first-touch pages, decoding, compilation and
   translation are inside). *)
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
  (* JASan dyn-only: every load and store carries a shadow check *)
  let jasan =
    words_per_insn (fun vm ->
        let tool, _ = Jt_jasan.Jasan.create () in
        let engine = Jt_dbt.Dbt.create ~vm ~client:tool.t_client () in
        tool.t_setup vm ~rules_for:(fun _ -> None);
        fun () -> Jt_dbt.Dbt.run engine)
  in
  if native > 0.1 then
    Alcotest.failf "Vm.run: %.3f minor words/insn > 0.1" native;
  if null > 0.1 then
    Alcotest.failf "null DBT: %.3f minor words/insn > 0.1" null;
  if jasan > 0.1 then
    Alcotest.failf "JASan dyn-only DBT: %.3f minor words/insn > 0.1" jasan

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
        ] );
    ]
