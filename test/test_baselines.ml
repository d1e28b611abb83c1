(* Baseline tools: detection envelopes and failure predicates that drive
   the paper's comparisons. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let vkinds (r : Jt_vm.Vm.result) =
  List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let run_valgrind m =
  Jt_baselines.Valgrind_like.run ~registry:(Progs.registry_for m)
    ~main:m.Jt_obj.Objfile.name ()

let run_jasan m =
  let tool, _ = Jt_jasan.Jasan.create () in
  (Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
     ~main:m.Jt_obj.Objfile.name ())
    .o_result

let test_valgrind_detects () =
  let r = run_valgrind (Progs.heap_overflow_prog ()) in
  Alcotest.(check (list string)) "overflow" [ "heap-buffer-overflow" ] (vkinds r);
  let r = run_valgrind (Progs.uaf_prog ()) in
  Alcotest.(check (list string)) "uaf" [ "heap-use-after-free" ] (vkinds r);
  let r = run_valgrind (Progs.sum_prog ()) in
  Alcotest.(check (list string)) "clean" [] (vkinds r);
  Alcotest.(check string) "output" (Progs.sum_expected 50) r.r_output

(* Overflow into the 8-byte alignment slack: byte granularity (JASan)
   catches it, allocator-granularity redzones (Valgrind) do not. *)
let slack_overflow_prog () =
  build ~name:"slack" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 13;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r2 1;
           I (Jt_asm.Sinsn.Sstore (Insn.W1, mem_b ~disp:14 Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
           movi Reg.r0 1;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let test_alignment_slack_divergence () =
  let m = slack_overflow_prog () in
  Alcotest.(check (list string))
    "jasan catches slack" [ "heap-buffer-overflow" ]
    (vkinds (run_jasan m));
  Alcotest.(check (list string)) "valgrind misses slack" [] (vkinds (run_valgrind m))

(* Heap-to-stack via direct pointer arithmetic: invisible to redzones;
   JASan sees it only if the canary is hit. *)
let heap_to_stack_prog ~hit_canary () =
  let locals = 16 in
  let disp = if hit_canary then -4 else -8 in
  build ~name:"h2s" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "victim"
        (Abi.frame_enter ~canary:true ~locals ()
        @ [
            (* a "corrupted heap pointer" that actually targets the stack *)
            lea Reg.r1 (mem_b ~disp Reg.fp);
            movi Reg.r2 0x41414141;
            st (mem_b ~disp:0 Reg.r1) Reg.r2;
            movi Reg.r0 0;
            (* repair the canary so the epilogue passes: the *detector*
               under test is the sanitizer, not the canary check *)
            load_canary Reg.r3;
            st (mem_b ~disp:(-4) Reg.fp) Reg.r3;
          ]
        @ Abi.frame_leave ~canary:true ~locals ());
      func "main" ([ call "victim" ] @ Progs.exit0);
    ]

let test_heap_to_stack_divergence () =
  let hit = heap_to_stack_prog ~hit_canary:true () in
  let miss = heap_to_stack_prog ~hit_canary:false () in
  Alcotest.(check bool)
    "jasan catches canary hit" true
    (List.mem "stack-buffer-overflow" (vkinds (run_jasan hit)));
  Alcotest.(check (list string)) "jasan misses non-canary" [] (vkinds (run_jasan miss));
  Alcotest.(check (list string)) "valgrind misses canary hit" [] (vkinds (run_valgrind hit));
  Alcotest.(check (list string)) "valgrind misses non-canary" [] (vkinds (run_valgrind miss))

(* Free-error kinds and the zero-size-free regression, through the
   Valgrind-like interposer (it keeps its own shadow + quarantine table,
   so the fixes must hold on both sanitizers). *)
let bad_free_prog ~wild () =
  build ~name:"badfree" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 16;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           mov Reg.r0 Reg.r6;
           call_import "free";
         ]
        @ (if wild then [ movi Reg.r0 0x1234 ] else [ mov Reg.r0 Reg.r6 ])
        @ [ call_import "free" ]
        @ Progs.exit0);
    ]

let test_valgrind_bad_free_kinds () =
  let r = run_valgrind (bad_free_prog ~wild:false ()) in
  Alcotest.(check (list string)) "double free" [ "double-free" ] (vkinds r);
  let r = run_valgrind (bad_free_prog ~wild:true ()) in
  Alcotest.(check (list string)) "wild free" [ "invalid-free" ] (vkinds r);
  let r = run_jasan (bad_free_prog ~wild:false ()) in
  Alcotest.(check (list string)) "jasan double free" [ "double-free" ] (vkinds r)

let zero_size_prog () =
  (* malloc(0), free, malloc(0), free, then a fresh 8-byte block used in
     bounds: pre-fix, each zero-size free poisoned 1 byte of foreign
     territory as heap-freed, turning later benign accesses (or honest
     overflow verdicts) into wrong reports *)
  build ~name:"zsz" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 0;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r0 0;
           call_import "malloc";
           mov Reg.r7 Reg.r0;
           mov Reg.r0 Reg.r6;
           call_import "free";
           mov Reg.r0 Reg.r7;
           call_import "free";
           movi Reg.r0 8;
           call_import "malloc";
           movi Reg.r2 5;
           st (mem_b ~disp:0 Reg.r0) Reg.r2;
           ld Reg.r3 (mem_b ~disp:4 Reg.r0);
           movi Reg.r0 1;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let test_zero_size_free_clean () =
  let m = zero_size_prog () in
  List.iter
    (fun (name, r) ->
      Alcotest.(check (list string)) (name ^ " clean") [] (vkinds r);
      Alcotest.(check string) (name ^ " output") "1\n" r.r_output)
    [ ("valgrind", run_valgrind m); ("jasan", run_jasan m) ]

(* The machine code of [insns], laid out from address 0. *)
let assemble insns =
  fst
    (List.fold_left
       (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
       ("", 0) insns)

(* Byte stores copying [code] to the buffer at [r7]. *)
let jit_writes code =
  List.concat
    (List.mapi
       (fun i c ->
         [
           movi Reg.r2 (Char.code c);
           I (Jt_asm.Sinsn.Sstore (Insn.W1, mem_b ~disp:i Reg.r7, Jt_asm.Sinsn.Sreg Reg.r2));
         ])
       (List.init (String.length code) (String.get code)))

(* Re-instrumentation: a JIT store that runs cleanly, is rewritten in
   place to hit the right redzone and is flushed, must be checked at its
   new address when it runs again, so the re-decoded entry carries a
   freshly wrapped op. *)
let test_valgrind_jit_rewrite () =
  let jit disp =
    assemble [ Insn.Store (Insn.W4, Insn.mem_base ~disp Reg.r6, Insn.Reg Reg.r0); Insn.Ret ]
  in
  let clean = jit 28 and overflow = jit 32 in
  Alcotest.(check int) "same length" (String.length clean) (String.length overflow);
  let flush_and_call =
    [ mov Reg.r0 Reg.r7; movi Reg.r1 64; syscall Sysno.cache_flush; call_reg Reg.r7 ]
  in
  let m =
    build ~name:"jit_rw" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 32; call_import "malloc"; mov Reg.r6 Reg.r0;
             movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r7 Reg.r0;
           ]
          @ jit_writes clean @ flush_and_call
          @ [ movi Reg.r0 1; syscall Sysno.write_int ]
          @ jit_writes overflow @ flush_and_call
          @ [ movi Reg.r0 2; syscall Sysno.write_int ]
          @ Progs.exit0);
      ]
  in
  let r = run_valgrind m in
  Alcotest.(check string) "both calls return" "1\n2\n" r.r_output;
  Alcotest.(check (list string))
    "only the rewritten store overflows" [ "heap-buffer-overflow" ]
    (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let test_valgrind_slower_than_jasan () =
  let m = Progs.sum_prog ~n:400 () in
  let native = (Progs.run_native m).r_cycles in
  let v = (run_valgrind m).r_cycles in
  let j = (run_jasan m).r_cycles in
  Alcotest.(check bool) "valgrind slowest" true (v > j);
  Alcotest.(check bool) "valgrind heavy" true (float_of_int v /. float_of_int native > 5.0)

(* -- RetroWrite-like -- *)

let pic_overflow_prog () =
  build ~name:"pic_ov" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 32;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r2 7;
           st (mem_b ~disp:32 Reg.r6) Reg.r2;
           movi Reg.r0 1;
           call_import "print_int";
         ]
        @ Progs.exit0);
    ]

let test_retrowrite_applicability () =
  let nonpic = Progs.heap_overflow_prog () in
  (match
     Jt_baselines.Retrowrite_like.run ~registry:(Progs.registry_for nonpic)
       ~main:"heap_ov" ()
   with
  | Error (Jt_baselines.Retrowrite_like.Needs_pic m) ->
    Alcotest.(check string) "refuses non-pic" "heap_ov" m
  | Error _ | Ok _ -> Alcotest.fail "expected Needs_pic");
  let cxx =
    build ~name:"cxx" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
      ~features:[ Jt_obj.Objfile.Cxx_exceptions ] ~entry:"main"
      [ func "main" Progs.exit0 ]
  in
  match
    Jt_baselines.Retrowrite_like.run ~registry:(Progs.registry_for cxx) ~main:"cxx" ()
  with
  | Error (Jt_baselines.Retrowrite_like.Unsupported_feature ("cxx", _)) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Unsupported_feature"

let test_retrowrite_detects_on_pic () =
  let m = pic_overflow_prog () in
  match
    Jt_baselines.Retrowrite_like.run ~registry:(Progs.registry_for m) ~main:"pic_ov" ()
  with
  | Ok r ->
    Alcotest.(check (list string)) "detects" [ "heap-buffer-overflow" ] (vkinds r);
    Alcotest.(check string) "output" "1\n" r.r_output
  | Error _ -> Alcotest.fail "should be applicable"

let test_retrowrite_misses_jit () =
  (* Same JIT overflow JASan catches (test_jasan): static-only rewriting
     cannot see dynamically generated code. *)
  let code =
    assemble [ Insn.Store (Insn.W4, Insn.mem_base ~disp:32 Reg.r6, Insn.Reg Reg.r0); Insn.Ret ]
  in
  let m =
    build ~name:"jit_pic" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 32; call_import "malloc"; mov Reg.r6 Reg.r0;
             movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r7 Reg.r0;
           ]
          @ jit_writes code
          @ [
              mov Reg.r0 Reg.r7; movi Reg.r1 64; syscall Sysno.cache_flush;
              call_reg Reg.r7;
            ]
          @ Progs.exit0);
      ]
  in
  (match
     Jt_baselines.Retrowrite_like.run ~registry:(Progs.registry_for m) ~main:"jit_pic" ()
   with
  | Ok r -> Alcotest.(check (list string)) "retrowrite blind to jit" [] (vkinds r)
  | Error _ -> Alcotest.fail "applicable");
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"jit_pic" ()
  in
  Alcotest.(check (list string))
    "jasan sees jit" [ "heap-buffer-overflow" ]
    (vkinds o.o_result)

(* RetroWrite rewrites object files, so registry plugins reached only
   through dlopen get instrumented too (whoever loads the file gets the
   rewritten version).  Non-PIC plugins always load at base 0 — the one
   base the loader re-uses across dlclose/dlopen cycles — which is what
   makes purging the runtime instrumentation map on unload load-bearing:
   entries that outlive their module would fire on whatever loads there
   next. *)

let plug name body =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic [ func ~exported:true "poke" body ]

(* Same .text layout up to the first instruction of [poke]: plugy's
   harmless [movi] sits at the exact link address of plugx's
   instrumented load. *)
let plugx () = plug "plugx.so" [ ld Reg.r2 (mem_b ~disp:0 Reg.r0); ret ]
let plugy () = plug "plugy.so" [ movi Reg.r2 9; ret ]

(* dlopen [target], dlsym "poke", run [arg] (sets r0), call it.  Leaves
   the module handle in r5. *)
let dl_call ~target ~arg =
  [
    addr_of_data ~pic:true Reg.r0 target;
    syscall Sysno.dlopen;
    mov Reg.r5 Reg.r0;
    addr_of_data ~pic:true Reg.r1 "pname";
    syscall Sysno.dlsym;
    mov Reg.r4 Reg.r0;
  ]
  @ arg
  @ [ call_reg Reg.r4 ]

let test_retrowrite_covers_plugins () =
  (* plugx's load runs against a redzone pointer: the rewritten plugin
     must detect it even though main never linked it. *)
  let m =
    build ~name:"plug_ov" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
      ~entry:"main"
      ~datas:
        [
          data "xname" [ Dbytes "plugx.so\x00" ];
          data "pname" [ Dbytes "poke\x00" ];
        ]
      [
        func "main"
          ([ movi Reg.r0 16; call_import "malloc"; mov Reg.r6 Reg.r0 ]
          @ dl_call ~target:"xname"
              ~arg:[ lea Reg.r0 (mem_b ~disp:20 Reg.r6) ]
          @ [ movi Reg.r0 1; call_import "print_int" ]
          @ Progs.exit0);
      ]
  in
  match
    Jt_baselines.Retrowrite_like.run
      ~registry:[ m; Progs.libc; plugx (); plugy () ]
      ~main:"plug_ov" ()
  with
  | Ok r ->
    Alcotest.(check (list string))
      "plugin access checked" [ "heap-buffer-overflow" ] (vkinds r);
    Alcotest.(check string) "output" "1\n" r.r_output
  | Error _ -> Alcotest.fail "should be applicable"

let test_retrowrite_dlclose_reuse () =
  (* Round 1 exercises plugx's instrumented load (valid pointer), then
     dlcloses it; round 2 loads plugy at the reused base 0 and calls it
     with a redzone pointer in r0.  A stale plugx meta surviving the
     unload would evaluate [r0] at plugy's first instruction and report
     a heap-buffer-overflow that never happened. *)
  let m =
    build ~name:"dlreuse" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
      ~entry:"main"
      ~datas:
        [
          data "xname" [ Dbytes "plugx.so\x00" ];
          data "yname" [ Dbytes "plugy.so\x00" ];
          data "pname" [ Dbytes "poke\x00" ];
        ]
      [
        func "main"
          ([ movi Reg.r0 16; call_import "malloc"; mov Reg.r6 Reg.r0 ]
          @ dl_call ~target:"xname" ~arg:[ mov Reg.r0 Reg.r6 ]
          @ [ mov Reg.r0 Reg.r5; syscall Sysno.dlclose ]
          @ dl_call ~target:"yname"
              ~arg:[ lea Reg.r0 (mem_b ~disp:20 Reg.r6) ]
          @ [ movi Reg.r0 1; call_import "print_int" ]
          @ Progs.exit0);
      ]
  in
  match
    Jt_baselines.Retrowrite_like.run
      ~registry:[ m; Progs.libc; plugx (); plugy () ]
      ~main:"dlreuse" ()
  with
  | Ok r ->
    Alcotest.(check (list string)) "no stale instrumentation" [] (vkinds r);
    Alcotest.(check string) "output" "1\n" r.r_output
  | Error _ -> Alcotest.fail "should be applicable"

(* -- Lockdown -- *)

(* The qsort pattern: a non-exported local comparator passed by value to
   a libc routine that calls it back. *)
let callback_prog () =
  let libc2 =
    build ~name:"libc.so" ~kind:Jt_obj.Objfile.Shared
      [
        func ~exported:true "__stack_chk_fail" [ movi Reg.r0 134; syscall Sysno.exit_ ];
        func ~exported:true "malloc" [ syscall Sysno.malloc; ret ];
        func ~exported:true "free" [ syscall Sysno.free; ret ];
        func ~exported:true "print_int" [ syscall Sysno.write_int; ret ];
        (* apply(f, x): r0 = fn ptr, r1 = arg *)
        func ~exported:true "apply"
          [ mov Reg.r4 Reg.r0; mov Reg.r0 Reg.r1; I (Jt_asm.Sinsn.Scall_ind_r Reg.r4); ret ];
      ]
  in
  let m =
    build ~name:"cbk" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "comparator" [ addi Reg.r0 1; ret ];
        func "main"
          ([
             addr_of_func ~pic:false Reg.r0 "comparator";
             movi Reg.r1 41;
             call_import "apply";
             call_import "print_int";
           ]
          @ Progs.exit0);
      ]
  in
  (m, [ m; libc2 ])

let test_lockdown_callback_fp () =
  let m, registry = callback_prog () in
  ignore m;
  let strong =
    Jt_baselines.Lockdown.run ~policy:Jt_baselines.Lockdown.Strong ~registry
      ~main:"cbk" ()
  in
  Alcotest.(check bool) "strong FPs" true strong.lk_false_positive;
  Alcotest.(check string) "still runs" "42\n" strong.lk_result.r_output;
  let weak =
    Jt_baselines.Lockdown.run ~policy:Jt_baselines.Lockdown.Weak ~registry
      ~main:"cbk" ()
  in
  Alcotest.(check bool) "weak clean" false weak.lk_false_positive;
  Alcotest.(check bool)
    "weak air <= strong air" true
    (weak.lk_dynamic_air <= strong.lk_dynamic_air);
  (* JCFI's address-taken analysis avoids this false positive. *)
  let tool, _ = Jt_jcfi.Jcfi.create () in
  let o = Janitizer.Driver.run ~tool ~registry ~main:"cbk" () in
  Alcotest.(check (list string)) "jcfi clean" [] (vkinds o.o_result)

let test_lockdown_clean_and_detects () =
  let m = Progs.indirect_prog () in
  let r =
    Jt_baselines.Lockdown.run ~registry:(Progs.registry_for m) ~main:"indirect" ()
  in
  Alcotest.(check bool) "clean" false r.lk_false_positive;
  Alcotest.(check string) "output" "222\n" r.lk_result.r_output;
  (* On toy-sized modules the absolute AIR is low (few bytes, generous
     per-function jump targets); ordering vs. JCFI is asserted at
     workload scale in test_workloads. *)
  Alcotest.(check bool)
    "air in range" true
    (r.lk_dynamic_air > 0.0 && r.lk_dynamic_air <= 100.0)

(* Two non-PIC plugins with the same bytes, both mapped at base 0:
   plga.so exports [f2], plgb.so hides it (no symbol at all).  Main
   calls [f2]'s address inside plgb, after dlopen/dlclose of plga when
   [reuse].  A policy that remembered the unloaded plga would allow the
   call into plgb as plga's [f2]. *)
let f2_plugin name ~exported =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic
    ~symtab_level:(if exported then Jt_obj.Objfile.Full else Exported_only)
    [ func ~exported "f2" [ movi Reg.r0 7; ret ] ]

let test_lockdown_dlclose_reuse () =
  let plga = f2_plugin "plga.so" ~exported:true
  and plgb = f2_plugin "plgb.so" ~exported:false in
  Alcotest.(check (list string))
    "same bytes"
    (List.map (fun (s : Jt_obj.Section.t) -> s.data) plga.sections)
    (List.map (fun (s : Jt_obj.Section.t) -> s.data) plgb.sections);
  let f2 = (Option.get (Jt_obj.Objfile.find_symbol plga "f2")).vaddr in
  let registry ~reuse =
    let open_plugin name = [ addr_of_data ~pic:true Reg.r0 name; syscall Sysno.dlopen ] in
    [
      build ~name:"lkreuse" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
        ~entry:"main"
        ~datas:
          [ data "aname" [ Dbytes "plga.so\x00" ]; data "bname" [ Dbytes "plgb.so\x00" ] ]
        [
          func "main"
            ((if reuse then open_plugin "aname" @ [ syscall Sysno.dlclose ] else [])
            @ open_plugin "bname"
            @ [ movi Reg.r4 f2; call_reg Reg.r4; call_import "print_int" ]
            @ Progs.exit0);
        ];
      Progs.libc;
      plga;
      plgb;
    ]
  in
  List.iter
    (fun (policy, label) ->
      let kinds ~reuse =
        let o =
          Jt_baselines.Lockdown.run ~policy ~registry:(registry ~reuse)
            ~main:"lkreuse" ()
        in
        Alcotest.(check string) (label ^ " output") "7\n" o.lk_result.r_output;
        vkinds o.lk_result
      in
      Alcotest.(check (list string))
        (label ^ " without plga") [ "lockdown-icall" ] (kinds ~reuse:false);
      Alcotest.(check (list string))
        (label ^ " after plga") [ "lockdown-icall" ] (kinds ~reuse:true))
    [ (Jt_baselines.Lockdown.Strong, "strong"); (Weak, "weak") ];
  let jcfi ~reuse =
    let tool, _ = Jt_jcfi.Jcfi.create () in
    vkinds
      (Janitizer.Driver.run ~tool ~registry:(registry ~reuse) ~main:"lkreuse" ())
        .o_result
  in
  Alcotest.(check (list string)) "jcfi" (jcfi ~reuse:false) (jcfi ~reuse:true)

(* -- BinCFI -- *)

let test_bincfi_clean_and_air () =
  let m = Progs.indirect_prog () in
  (match
     Jt_baselines.Bincfi.run ~registry:(Progs.registry_for m) ~main:"indirect" ()
   with
  | Ok r ->
    Alcotest.(check (list string)) "clean" [] (vkinds r);
    Alcotest.(check string) "output" "222\n" r.r_output
  | Error _ -> Alcotest.fail "applicable");
  let air_bincfi = Jt_baselines.Bincfi.static_air (Progs.registry_for m) in
  let air_jcfi = Jt_jcfi.Air.static_jcfi (Progs.registry_for m) in
  (* JCFI > BinCFI ordering needs realistically sized binaries (BinCFI's
     scan set grows with code size); asserted in test_workloads. *)
  Alcotest.(check bool) "bincfi air in range" true (air_bincfi > 0.0 && air_bincfi < 100.0);
  Alcotest.(check bool) "jcfi air in range" true (air_jcfi > 0.0 && air_jcfi < 100.0)

(* The data-in-code fraction as BinCFI computed it with one table
   binding per decoded byte: the reference for its code-section byte
   maps. *)
let data_in_code_ref (m : Jt_obj.Objfile.t) =
  let d = Jt_disasm.Disasm.run m in
  let covered = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun a (i : Jt_disasm.Disasm.insn_info) ->
      for k = 0 to i.d_len - 1 do
        Hashtbl.replace covered (a + k) ()
      done)
    d.insns;
  let uncovered = ref 0 and total = ref 0 in
  List.iter
    (fun (s : Jt_obj.Section.t) ->
      String.iteri
        (fun o c ->
          if c <> '\x00' then begin
            incr total;
            if not (Hashtbl.mem covered (s.vaddr + o)) then incr uncovered
          end)
        s.data)
    (Jt_obj.Objfile.code_sections m);
  if !total = 0 then 0.0 else float_of_int !uncovered /. float_of_int !total

let test_bincfi_data_in_code_reference () =
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      let got = (Jt_baselines.Bincfi.prepare_module m).bc_data_in_code in
      let want = data_in_code_ref m in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        Alcotest.failf "%s: data in code %h, reference %h" m.name got want)
    (Corpus.registry_modules () @ Corpus.cold_modules () @ Corpus.fuzz_modules ())

let test_bincfi_breaks_on_data_in_code () =
  (* A module drowning in embedded data defeats static rewriting. *)
  let blob = String.make 600 '\xF7' in
  let m =
    build ~name:"datey" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main" (Progs.exit0 @ [ label "blob"; Bytes blob ]);
      ]
  in
  match
    Jt_baselines.Bincfi.run ~registry:(Progs.registry_for m) ~main:"datey" ()
  with
  | Error (Jt_baselines.Bincfi.Broken_rewrite "datey") -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected broken rewrite"

(* -- the shared interpreter loop -- *)

(* A PIC loop of loads, stores, an indirect call and a return per trip,
   with output every trip: every baseline instruments something in it. *)
let fuel_prog () =
  build ~name:"bfuel" ~kind:Jt_obj.Objfile.Exec_pic ~entry:"main"
    ~datas:[ data "buf" [ Dspace 16 ]; data "fp" [ Dfuncptr "bump" ] ]
    [
      func "bump" [ addi Reg.r1 1; ret ];
      func "main"
        ([
           addr_of_data ~pic:true Reg.r6 "buf";
           addr_of_data ~pic:true Reg.r3 "fp";
           ld Reg.r4 (mem_b ~disp:0 Reg.r3);
           movi Reg.r5 0;
           movi Reg.r2 0;
           label "loop";
           cmpi Reg.r5 12;
           jcc Insn.Ge "done";
           add Reg.r2 Reg.r5;
           st (mem_b ~disp:0 Reg.r6) Reg.r2;
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           call_reg Reg.r4;
           mov Reg.r0 Reg.r1;
           syscall Sysno.write_int;
           addi Reg.r5 1;
           jmp "loop";
           label "done";
         ]
        @ Progs.exit0);
    ]

(* Every fuel budget from 0 to the program's instruction count must stop
   every scheme exactly where [Vm.run ~fuel] stops natively: same
   status, instruction count and output ([Vm.result] carries no PC; at
   a given instruction count the PC of this deterministic program is
   fixed), and no violation.  The emitted binary is left out: its
   icount also counts its sites and pins. *)
let test_fuel_boundary_sweep () =
  let m = fuel_prog () in
  let registry = [ m ] and main = "bfuel" in
  let state (r : Jt_vm.Vm.result) =
    Format.asprintf "%a icount=%d out=%S violations=%d" Jt_vm.Vm.pp_status
      r.r_status r.r_icount r.r_output (List.length r.r_violations)
  in
  let full = Jt_vm.Vm.run_native ~registry ~main () in
  Alcotest.(check bool) "native exits" true (full.r_status = Jt_vm.Vm.Exited 0);
  let schemes =
    List.filter (fun s -> s <> Jt_schemes.Scheme.Jasan_emitted) Jt_schemes.Scheme.all
  in
  for fuel = 0 to full.r_icount do
    let native = Jt_vm.Vm.run_native ~fuel ~registry ~main () in
    if fuel < full.r_icount then
      Alcotest.(check bool) "native out of fuel" true
        (native.r_status = Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
        && native.r_icount = fuel);
    List.iter
      (fun scheme ->
        let name = Jt_schemes.Scheme.name scheme in
        match Jt_schemes.Scheme.run ~fuel scheme ~registry ~main with
        | Error r ->
          Alcotest.failf "%s refused: %s" name (Jt_schemes.Scheme.refusal_to_string r)
        | Ok o ->
          Alcotest.(check string)
            (Printf.sprintf "%s, fuel %d" name fuel)
            (state native) (state o.so_run.o_result))
      schemes
  done

let () =
  Alcotest.run "baselines"
    [
      ( "valgrind",
        [
          Alcotest.test_case "detects" `Quick test_valgrind_detects;
          Alcotest.test_case "slack divergence" `Quick test_alignment_slack_divergence;
          Alcotest.test_case "heap-to-stack divergence" `Quick test_heap_to_stack_divergence;
          Alcotest.test_case "bad-free kinds" `Quick test_valgrind_bad_free_kinds;
          Alcotest.test_case "zero-size free" `Quick test_zero_size_free_clean;
          Alcotest.test_case "overhead class" `Quick test_valgrind_slower_than_jasan;
          Alcotest.test_case "jit rewrite with flush" `Quick test_valgrind_jit_rewrite;
        ] );
      ( "retrowrite",
        [
          Alcotest.test_case "applicability" `Quick test_retrowrite_applicability;
          Alcotest.test_case "detects on pic" `Quick test_retrowrite_detects_on_pic;
          Alcotest.test_case "misses jit" `Quick test_retrowrite_misses_jit;
          Alcotest.test_case "covers plugins" `Quick test_retrowrite_covers_plugins;
          Alcotest.test_case "dlclose/base reuse" `Quick test_retrowrite_dlclose_reuse;
        ] );
      ( "lockdown",
        [
          Alcotest.test_case "callback fp" `Quick test_lockdown_callback_fp;
          Alcotest.test_case "clean + air" `Quick test_lockdown_clean_and_detects;
          Alcotest.test_case "dlclose/base reuse" `Quick test_lockdown_dlclose_reuse;
        ] );
      ( "bincfi",
        [
          Alcotest.test_case "clean + air" `Quick test_bincfi_clean_and_air;
          Alcotest.test_case "data in code" `Quick test_bincfi_breaks_on_data_in_code;
          Alcotest.test_case "data in code reference" `Quick
            test_bincfi_data_in_code_reference;
        ] );
      ( "interpreter loop",
        [ Alcotest.test_case "fuel boundary sweep" `Quick test_fuel_boundary_sweep ] );
    ]
