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
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
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
    let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
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
  let vm = Jt_vm.Vm.make ~registry:[ m ] in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"fuelb";
  Jt_dbt.Dbt.run ~fuel:10 engine;
  Alcotest.(check bool) "out of fuel" true
    (vm.status = Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel);
  Alcotest.(check int) "stops at the budget" 10 vm.icount

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
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
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
    let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) in
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
    let vm = Jt_vm.Vm.make ~registry in
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
        tool.t_setup vm;
        fun () -> Jt_dbt.Dbt.run engine)
  in
  if native > 0.1 then
    Alcotest.failf "Vm.run: %.3f minor words/insn > 0.1" native;
  if null > 0.1 then
    Alcotest.failf "null DBT: %.3f minor words/insn > 0.1" null;
  if jasan > 0.1 then
    Alcotest.failf "JASan dyn-only DBT: %.3f minor words/insn > 0.1" jasan

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
          Alcotest.test_case "empty-block invalidation" `Quick
            test_decode_fault_block_invalidated;
          Alcotest.test_case "hot path allocation" `Quick
            test_hot_path_allocation;
        ] );
    ]
