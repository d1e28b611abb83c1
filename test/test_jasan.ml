(* JASan detection and soundness tests, in hybrid and dynamic-only modes. *)

let run_jasan ?(hybrid = true) ?(liveness = Jt_jasan.Jasan.Live_full) m =
  let tool, _rt = Jt_jasan.Jasan.create ~liveness () in
  Janitizer.Driver.run ~hybrid ~tool ~registry:(Progs.registry_for m)
    ~main:m.Jt_obj.Objfile.name ()

let kinds (o : Janitizer.Driver.outcome) =
  List.sort_uniq compare
    (List.map (fun v -> v.Jt_vm.Vm.v_kind) o.o_result.r_violations)

let check_clean name (o : Janitizer.Driver.outcome) expected_out =
  Alcotest.(check (list string)) (name ^ " no violations") [] (kinds o);
  Alcotest.(check string) (name ^ " output") expected_out o.o_result.r_output

let test_clean_program () =
  let m = Progs.sum_prog () in
  check_clean "hybrid" (run_jasan m) (Progs.sum_expected 50);
  check_clean "dyn" (run_jasan ~hybrid:false m) (Progs.sum_expected 50)

let test_heap_overflow_detected () =
  let m = Progs.heap_overflow_prog () in
  List.iter
    (fun (label, hybrid) ->
      let o = run_jasan ~hybrid m in
      Alcotest.(check (list string))
        (label ^ " detects")
        [ "heap-buffer-overflow" ] (kinds o);
      (* recover mode: the program still completes *)
      Alcotest.(check string) (label ^ " output") "1\n" o.o_result.r_output)
    [ ("hybrid", true); ("dyn", false) ]

let test_uaf_detected () =
  let m = Progs.uaf_prog () in
  List.iter
    (fun (label, hybrid) ->
      let o = run_jasan ~hybrid m in
      Alcotest.(check (list string))
        (label ^ " detects")
        [ "heap-use-after-free" ] (kinds o))
    [ ("hybrid", true); ("dyn", false) ]

let test_stack_smash_detected () =
  let m = Progs.stack_smash_prog ~bad:true () in
  List.iter
    (fun (label, hybrid) ->
      let o = run_jasan ~hybrid m in
      Alcotest.(check bool)
        (label ^ " detects stack overflow")
        true
        (List.mem "stack-buffer-overflow" (kinds o)))
    [ ("hybrid", true); ("dyn", false) ]

let test_stack_good_clean () =
  let m = Progs.stack_smash_prog ~bad:false () in
  List.iter
    (fun (label, hybrid) ->
      let o = run_jasan ~hybrid m in
      Alcotest.(check (list string)) (label ^ " clean") [] (kinds o);
      Alcotest.(check string) (label ^ " output") "3\n" o.o_result.r_output)
    [ ("hybrid", true); ("dyn", false) ]

let test_jit_code_covered () =
  (* Dynamically generated code must still be sanitized: generate code
     that stores past a heap buffer. *)
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  (* JIT body: st4 [r6 + 32], r0 ; ret   — r6 points to a 32-byte buffer *)
  let code =
    List.fold_left
      (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
      ("", 0)
      [ Insn.Store (Insn.W4, Insn.mem_base ~disp:32 Reg.r6, Insn.Reg Reg.r0); Insn.Ret ]
    |> fst
  in
  let store_bytes =
    List.concat
      (List.mapi
         (fun i c ->
           [
             movi Reg.r2 (Char.code c);
             I (Jt_asm.Sinsn.Sstore (Insn.W1, mem_b ~disp:i Reg.r7, Jt_asm.Sinsn.Sreg Reg.r2));
           ])
         (List.init (String.length code) (String.get code)))
  in
  let m =
    build ~name:"jit_ov" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 32; call_import "malloc"; mov Reg.r6 Reg.r0;
             movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r7 Reg.r0;
           ]
          @ store_bytes
          @ [
              mov Reg.r0 Reg.r7; movi Reg.r1 64; syscall Sysno.cache_flush;
              call_reg Reg.r7;
            ]
          @ Progs.exit0);
      ]
  in
  let o = run_jasan m in
  Alcotest.(check (list string)) "jit overflow" [ "heap-buffer-overflow" ] (kinds o);
  Alcotest.(check bool) "covered dynamically" true (o.o_dynamic_fraction > 0.0)

(* A loop whose exit test (jne) defeats the SCEV pattern, so per-access
   MEM_CHECK rules remain and liveness data matters. *)
let churn_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"churn" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 64;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r1 0;
           label "head";
           st (mem_b ~disp:0 Reg.r6) Reg.r1;
           st (mem_b ~disp:4 Reg.r6) Reg.r1;
           ld Reg.r2 (mem_b ~disp:8 Reg.r6);
           addi Reg.r1 1;
           cmpi Reg.r1 400;
           jcc Insn.Ne "head";
           mov Reg.r0 Reg.r1;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let test_liveness_reduces_cost () =
  let m = churn_prog () in
  let full = run_jasan ~liveness:Jt_jasan.Jasan.Live_full m in
  let base = run_jasan ~liveness:Jt_jasan.Jasan.Live_none m in
  Alcotest.(check string) "full output" "400\n" full.o_result.r_output;
  Alcotest.(check bool)
    "full liveness cheaper" true
    (full.o_result.r_cycles < base.o_result.r_cycles)

let test_hybrid_cheaper_than_dyn () =
  let m = Progs.sum_prog ~n:500 () in
  let hybrid = run_jasan m in
  let dyn = run_jasan ~hybrid:false m in
  Alcotest.(check bool)
    "hybrid cheaper" true
    (hybrid.o_result.r_cycles < dyn.o_result.r_cycles)

(* ---- static-pass ablations ---- *)

let run_with tool m =
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
      ~main:m.Jt_obj.Objfile.name ()
  in
  (o, (Jt_metrics.Metrics.Counters.current ()).c_san_checks)

(* A loop over fp-relative locals: the frame policy leaves every one of
   these accesses to the canary, so turning it off must add checks. *)
let frame_locals_prog () =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let locals = 8 in
  build ~name:"frloc" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "acc"
        (Abi.frame_enter ~locals ()
        @ [
            sti (Abi.local locals 0) 0;
            movi Reg.r1 0;
            label "loop";
            cmpi Reg.r1 20;
            jcc Insn.Ge "done";
            ld Reg.r2 (Abi.local locals 0);
            add Reg.r2 Reg.r1;
            st (Abi.local locals 0) Reg.r2;
            addi Reg.r1 1;
            jmp "loop";
            label "done";
            ld Reg.r0 (Abi.local locals 0);
          ]
        @ Abi.frame_leave ~locals ());
      func "main" ([ call "acc"; call_import "print_int" ] @ Progs.exit0);
    ]

let test_frame_skip_matters () =
  let m = frame_locals_prog () in
  let o_on, on = run_with (fst (Jt_jasan.Jasan.create ())) m in
  let o_off, off =
    run_with (fst (Jt_jasan.Jasan.create ~skip_frame_accesses:false ())) m
  in
  check_clean "frame-skip on" o_on "190\n";
  check_clean "frame-skip off" o_off "190\n";
  Alcotest.(check bool)
    (Printf.sprintf "more checks without frame-skip (%d > %d)" off on)
    true (off > on)

(* Canary analysis is a soundness requirement, not an optimization: once
   frame accesses are instrumented, the epilogue's own canary read trips
   the poisoned slot unless the exemption covers it. *)
let test_canary_exemption_necessary () =
  let m = Progs.stack_smash_prog ~bad:false () in
  let run exempt_canary =
    fst
      (run_with
         (fst
            (Jt_jasan.Jasan.create ~skip_frame_accesses:false ~exempt_canary
               ()))
         m)
  in
  Alcotest.(check bool)
    "stack violations without the exemption" true
    (List.mem "stack-buffer-overflow" (kinds (run false)));
  check_clean "with the exemption" (run true) "3\n"

(* ---- allocator lifecycle: shadow contract of the Rt event handler ---- *)

(* Drive a bare allocator through [Rt.on_alloc_event], no VM needed. *)
let rt_harness ?reuse ?quarantine_capacity () =
  let alloc = Jt_vm.Alloc.create ?reuse ?quarantine_capacity () in
  let rt = Jt_jasan.Jasan.Rt.create () in
  let reports = ref [] in
  Jt_vm.Alloc.set_redzone alloc Jt_jasan.Jasan.redzone_bytes;
  Jt_vm.Alloc.subscribe alloc
    (Jt_jasan.Jasan.Rt.on_alloc_event rt
       ~report:(fun ~kind ~addr -> reports := (kind, addr) :: !reports));
  (alloc, rt, reports)

let freed_at rt x =
  match
    Jt_jasan.Shadow.first_poisoned (Jt_jasan.Jasan.Rt.shadow rt) x ~len:1
  with
  | Some (_, Jt_jasan.Shadow.Heap_freed) -> true
  | _ -> false

let test_zero_size_free () =
  (* Freeing a 0-byte block must poison 0 bytes: the byte at its base
     belongs to its own right redzone, and marking it [Heap_freed] used
     to misclassify later overflow probes (and outlive quarantine
     retirement, since the quarantine records a 0-byte range). *)
  let alloc, rt, reports = rt_harness () in
  let a = Jt_vm.Alloc.malloc alloc 0 in
  let b = Jt_vm.Alloc.malloc alloc 0 in
  Jt_vm.Alloc.free alloc a;
  Jt_vm.Alloc.free alloc b;
  for x = a - 16 to b + 16 do
    Alcotest.(check bool)
      (Printf.sprintf "no heap-freed byte at %#x" x)
      false (freed_at rt x)
  done;
  (* both bases still read as redzone, so an OOB probe keeps its
     honest "heap-buffer-overflow" verdict *)
  List.iter
    (fun x ->
      match
        Jt_jasan.Shadow.first_poisoned (Jt_jasan.Jasan.Rt.shadow rt) x ~len:1
      with
      | Some (_, Jt_jasan.Shadow.Heap_redzone) -> ()
      | _ -> Alcotest.failf "base %#x is not redzone" x)
    [ a; b ];
  Alcotest.(check int) "no bad-free reports" 0 (List.length !reports)

let test_bad_free_kinds () =
  let alloc, _rt, reports = rt_harness () in
  let a = Jt_vm.Alloc.malloc alloc 32 in
  Jt_vm.Alloc.free alloc a;
  Jt_vm.Alloc.free alloc a;
  Alcotest.(check (list (pair string int)))
    "second free of a dead block"
    [ ("double-free", a) ]
    !reports;
  Jt_vm.Alloc.free alloc (a + 8);
  Alcotest.(check (pair string int))
    "interior pointer"
    ("invalid-free", a + 8)
    (List.hd !reports);
  Jt_vm.Alloc.free alloc 0x7777_0000;
  Alcotest.(check (pair string int))
    "wild pointer"
    ("invalid-free", 0x7777_0000)
    (List.hd !reports)

let test_quarantine_holds_freed () =
  (* Default capacity: a freed block stays [Heap_freed] no matter how
     many same-size allocations follow (the bump allocator never hands
     its footprint back while quarantined). *)
  let alloc, rt, _ = rt_harness () in
  let a = Jt_vm.Alloc.malloc alloc 16 in
  Jt_vm.Alloc.free alloc a;
  for _ = 1 to 50 do
    ignore (Jt_vm.Alloc.malloc alloc 16)
  done;
  Alcotest.(check bool) "still freed" true (freed_at rt a);
  Alcotest.(check bool) "whole payload" true (freed_at rt (a + 15))

let test_quarantine_drain_and_reuse () =
  (* Capacity 0 retires a block the moment it is freed; in reuse mode
     the very next same-size malloc recycles the footprint — and the
     recycled block must come back fully addressable, with no stale
     [Heap_freed] byte. *)
  let alloc, rt, reports = rt_harness ~reuse:true ~quarantine_capacity:0 () in
  let a = Jt_vm.Alloc.malloc alloc 24 in
  Jt_vm.Alloc.free alloc a;
  Alcotest.(check int) "drained immediately" 0 (Jt_vm.Alloc.quarantined_bytes alloc);
  Alcotest.(check bool) "freed while retired" true (freed_at rt a);
  let b = Jt_vm.Alloc.malloc alloc 24 in
  Alcotest.(check int) "footprint recycled" a b;
  for x = b to b + 23 do
    Alcotest.(check bool)
      (Printf.sprintf "byte %#x live again" x)
      false (freed_at rt x)
  done;
  Alcotest.(check int) "no reports" 0 (List.length !reports)

let test_realloc_old_pointer_stays_poisoned () =
  (* The whole point of the quarantine: reallocation elsewhere must not
     clear the old footprint's [Heap_freed] state. *)
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  let m =
    build ~name:"stale_realloc" ~kind:Jt_obj.Objfile.Exec_nonpic
      ~deps:[ "libc.so" ] ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 16;
             call_import "malloc";
             mov Reg.r6 Reg.r0;
             mov Reg.r0 Reg.r6;
             movi Reg.r1 64;
             call_import "realloc";
             mov Reg.r7 Reg.r0;
             (* several fresh allocations between free and use *)
             movi Reg.r0 16;
             call_import "malloc";
             movi Reg.r0 16;
             call_import "malloc";
             ld Reg.r2 (mem_b ~disp:0 Reg.r6);
           ]
          @ Progs.exit0);
      ]
  in
  List.iter
    (fun (label, hybrid) ->
      let o = run_jasan ~hybrid m in
      Alcotest.(check (list string))
        (label ^ " stale pointer caught")
        [ "heap-use-after-free" ] (kinds o))
    [ ("hybrid", true); ("dyn", false) ]

let test_static_rules_emitted () =
  let m = Progs.sum_prog () in
  let tool, _ = Jt_jasan.Jasan.create () in
  let files = Janitizer.Driver.analyze_all ~tool (Progs.registry_for m) in
  let f = List.assoc "sum" files in
  let ids = List.map (fun r -> r.Jt_rules.Rules.rule_id) f.rf_rules in
  Alcotest.(check bool) "has noop marks" true (List.mem Jt_rules.Rules.no_op ids);
  Alcotest.(check bool)
    "has checks or hoisted checks" true
    (List.mem Jt_jasan.Jasan.Ids.mem_check ids
    || List.mem Jt_jasan.Jasan.Ids.range_check ids);
  (* Serialization roundtrip on real rule files. *)
  let f' = Jt_rules.Rules.(decode_file (encode_file f)) in
  Alcotest.(check int)
    "roundtrip count"
    (List.length f.rf_rules)
    (List.length f'.rf_rules);
  Alcotest.(check bool) "roundtrip equal" true (f = f')

(* -- the paged shadow table -- *)

module Shadow = Jt_jasan.Shadow

let poisoned_at =
  let state =
    Alcotest.testable
      (fun ppf st ->
        Format.pp_print_string ppf
          (match st with
          | Shadow.Addressable -> "addressable"
          | Heap_redzone -> "redzone"
          | Heap_freed -> "freed"
          | Stack_canary -> "canary"))
      ( = )
  in
  Alcotest.(option (pair int state))

(* Ranges straddling each level of the page table (a 4 KiB page, a
   256 KiB leaf, a 16 MiB middle level), the middle of the address space
   and its top (where addresses wrap to 0). *)
let test_shadow_directory_edges () =
  List.iter
    (fun b ->
      let at d = (b + d) land 0xFFFF_FFFF in
      let s = Shadow.create () in
      Alcotest.check poisoned_at "clean table" None
        (Shadow.first_poisoned s (at (-16)) ~len:32);
      Shadow.poison s (at (-6)) ~len:12 Shadow.Heap_redzone;
      Alcotest.(check int) "count" 12 (Shadow.poisoned_count s);
      Alcotest.check poisoned_at "first from below"
        (Some (at (-6), Shadow.Heap_redzone))
        (Shadow.first_poisoned s (at (-16)) ~len:32);
      Alcotest.check poisoned_at "first past the edge"
        (Some (at 0, Shadow.Heap_redzone))
        (Shadow.first_poisoned s (at 0) ~len:8);
      Alcotest.check poisoned_at "clean above" None
        (Shadow.first_poisoned s (at 6) ~len:64);
      Alcotest.(check int) "last byte" 1 (Shadow.get s (at 5));
      Alcotest.(check int) "byte after" 0 (Shadow.get s (at 6));
      Shadow.unpoison s (at (-2)) ~len:4;
      Alcotest.(check int) "count after unpoison" 8 (Shadow.poisoned_count s);
      Alcotest.check poisoned_at "hole" None
        (Shadow.first_poisoned s (at (-2)) ~len:4);
      Alcotest.check poisoned_at "after the hole"
        (Some (at 2, Shadow.Heap_redzone))
        (Shadow.first_poisoned s (at (-2)) ~len:5);
      Shadow.poison s (at (-3)) ~len:2 Shadow.Heap_freed;
      Alcotest.(check int) "count after repoison" 9 (Shadow.poisoned_count s);
      Alcotest.check poisoned_at "new state"
        (Some (at (-3), Shadow.Heap_freed))
        (Shadow.first_poisoned s (at (-3)) ~len:1);
      Shadow.unpoison s (at (-16)) ~len:32;
      Alcotest.(check int) "all clean" 0 (Shadow.poisoned_count s);
      Alcotest.check poisoned_at "clean again" None
        (Shadow.first_poisoned s (at (-16)) ~len:32))
    [ 0x0000_1000; 0x0004_0000; 0x0040_0000; 0x0080_0000; 0x0100_0000;
      0x8000_0000; 0 ]

(* Overlapping fills of random ranges, against a per-byte model: the
   count stays exact and every first_poisoned agrees. *)
let test_shadow_overlapping_fills () =
  let rng = Random.State.make [| 19 |] in
  List.iter
    (fun lo ->
      let s = Shadow.create () in
      let model = Hashtbl.create 64 in
      let span = 0x4000 in
      for _ = 1 to 400 do
        let a = (lo + Random.State.int rng span) land 0xFFFF_FFFF in
        let len = 1 + Random.State.int rng 5000 in
        let v = Random.State.int rng 3 in
        (if v = 0 then Shadow.unpoison s a ~len
         else
           Shadow.poison s a ~len
             (if v = 1 then Shadow.Heap_redzone else Shadow.Heap_freed));
        for k = 0 to len - 1 do
          let x = (a + k) land 0xFFFF_FFFF in
          if v = 0 then Hashtbl.remove model x else Hashtbl.replace model x v
        done;
        Alcotest.(check int) "count" (Hashtbl.length model)
          (Shadow.poisoned_count s);
        let q = (lo + Random.State.int rng span) land 0xFFFF_FFFF in
        let qlen = 1 + Random.State.int rng 300 in
        let expected =
          let rec go k =
            if k >= qlen then None
            else
              let x = (q + k) land 0xFFFF_FFFF in
              match Hashtbl.find_opt model x with
              | Some v ->
                Some (x, if v = 1 then Shadow.Heap_redzone else Shadow.Heap_freed)
              | None -> go (k + 1)
          in
          go 0
        in
        Alcotest.check poisoned_at "first_poisoned" expected
          (Shadow.first_poisoned s q ~len:qlen)
      done)
    [ 0x0040_0000 - 0x2000; 0xFFFF_FFFF - 0x2000 ]

let () =
  Alcotest.run "jasan"
    [
      ( "detection",
        [
          Alcotest.test_case "clean program" `Quick test_clean_program;
          Alcotest.test_case "heap overflow" `Quick test_heap_overflow_detected;
          Alcotest.test_case "use after free" `Quick test_uaf_detected;
          Alcotest.test_case "stack smash" `Quick test_stack_smash_detected;
          Alcotest.test_case "stack good" `Quick test_stack_good_clean;
          Alcotest.test_case "jit coverage" `Quick test_jit_code_covered;
        ] );
      ( "performance-model",
        [
          Alcotest.test_case "liveness opt" `Quick test_liveness_reduces_cost;
          Alcotest.test_case "hybrid vs dyn" `Quick test_hybrid_cheaper_than_dyn;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "frame-skip policy matters" `Quick
            test_frame_skip_matters;
          Alcotest.test_case "canary exemption necessary" `Quick
            test_canary_exemption_necessary;
        ] );
      ( "alloc-lifecycle",
        [
          Alcotest.test_case "zero-size free poisons nothing" `Quick
            test_zero_size_free;
          Alcotest.test_case "bad-free kinds" `Quick test_bad_free_kinds;
          Alcotest.test_case "quarantine holds freed" `Quick
            test_quarantine_holds_freed;
          Alcotest.test_case "drain and reuse" `Quick
            test_quarantine_drain_and_reuse;
          Alcotest.test_case "realloc leaves stale poisoned" `Quick
            test_realloc_old_pointer_stays_poisoned;
        ] );
      ( "rules",
        [ Alcotest.test_case "static rules" `Quick test_static_rules_emitted ] );
      ( "shadow",
        [
          Alcotest.test_case "directory and address-space edges" `Quick
            test_shadow_directory_edges;
          Alcotest.test_case "overlapping fills" `Quick
            test_shadow_overlapping_fills;
        ] );
    ]
