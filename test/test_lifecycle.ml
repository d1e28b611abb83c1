(* Allocation and module lifecycle: calloc/realloc semantics, realloc
   use-after-free detection, dlclose and use-after-unload. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let vkinds (r : Jt_vm.Vm.result) =
  List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let test_calloc_zeroed () =
  let m =
    build ~name:"cz" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 64;
             call_import "calloc";
             ld Reg.r0 (mem_b ~disp:32 Reg.r0);
             call_import "print_int";
           ]
          @ Progs.exit0);
      ]
  in
  let r =
    Jt_vm.Vm.run_native ~registry:[ m; Jt_workloads.Stdlibs.libc ] ~main:"cz" ()
  in
  Alcotest.(check string) "zero" "0\n" r.r_output

let realloc_prog ~use_old =
  build ~name:"ra" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 16;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           sti (mem_b ~disp:8 Reg.r6) 1234;
           mov Reg.r0 Reg.r6;
           movi Reg.r1 64;
           call_import "realloc";
           mov Reg.r7 Reg.r0;
         ]
        @ (if use_old then [ ld Reg.r0 (mem_b ~disp:8 Reg.r6) ]
           else [ ld Reg.r0 (mem_b ~disp:8 Reg.r7) ])
        @ [ call_import "print_int" ]
        @ Progs.exit0);
    ]

let test_realloc_copies () =
  let m = realloc_prog ~use_old:false in
  let r =
    Jt_vm.Vm.run_native ~registry:[ m; Jt_workloads.Stdlibs.libc ] ~main:"ra" ()
  in
  Alcotest.(check string) "copied" "1234\n" r.r_output

let test_realloc_uaf_detected () =
  let m = realloc_prog ~use_old:true in
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:[ m; Jt_workloads.Stdlibs.libc ]
      ~main:"ra" ()
  in
  Alcotest.(check (list string)) "uaf via realloc" [ "heap-use-after-free" ]
    (vkinds o.o_result);
  (* ... and the fresh pointer is clean *)
  let good = realloc_prog ~use_old:false in
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:[ good; Jt_workloads.Stdlibs.libc ]
      ~main:"ra" ()
  in
  Alcotest.(check (list string)) "fresh ok" [] (vkinds o.o_result)

(* dlopen a plugin, grab a function pointer, dlclose, then decide whether
   to call the (now dangling) pointer. *)
let dlclose_prog ~call_after =
  build ~name:"dlc" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:
      [
        data "modname" [ Dbytes "plugin.so\x00" ];
        data "symname" [ Dbytes "answer\x00" ];
      ]
    [
      func "main"
        ([
           addr_of_data ~pic:false Reg.r0 "modname";
           syscall Sysno.dlopen;
           mov Reg.r6 Reg.r0 (* handle *);
           addr_of_data ~pic:false Reg.r1 "symname";
           syscall Sysno.dlsym;
           mov Reg.r7 Reg.r0 (* fn ptr *);
           call_reg Reg.r7;
           call_import "print_int";
           mov Reg.r0 Reg.r6;
           syscall Sysno.dlclose;
           call_import "print_int" (* prints 1 on successful unload *);
         ]
        @ (if call_after then [ call_reg Reg.r7 ] else [])
        @ Progs.exit0);
    ]

let registry m = [ m; Jt_workloads.Stdlibs.libc; Progs.plugin ]

let test_dlclose_unloads () =
  let m = dlclose_prog ~call_after:false in
  let r = Jt_vm.Vm.run_native ~registry:(registry m) ~main:"dlc" () in
  Alcotest.(check string) "runs, unload succeeds" "777\n1\n" r.r_output

let test_dlclose_pinned_refused () =
  (* handle 0 is not a valid dlopen handle; also the startup closure is
     pinned: dlclosing libc must fail.  We test via the loader API. *)
  let m = dlclose_prog ~call_after:false in
  let vm = Jt_vm.Vm.make ~registry:(registry m) () in
  Jt_vm.Vm.boot vm ~main:"dlc";
  Alcotest.(check bool) "libc pinned" false
    (Jt_loader.Loader.dlclose vm.loader "libc.so");
  Alcotest.(check bool) "main pinned" false
    (Jt_loader.Loader.dlclose vm.loader "dlc")

let test_use_after_unload_flagged_by_jcfi () =
  let m = dlclose_prog ~call_after:true in
  let tool, _ = Jt_jcfi.Jcfi.create () in
  let o = Janitizer.Driver.run ~tool ~registry:(registry m) ~main:"dlc" () in
  Alcotest.(check bool)
    "call into unloaded module flagged" true
    (List.mem "cfi-icall" (vkinds o.o_result));
  (* without the call, clean *)
  let m = dlclose_prog ~call_after:false in
  let tool, _ = Jt_jcfi.Jcfi.create () in
  let o = Janitizer.Driver.run ~tool ~registry:(registry m) ~main:"dlc" () in
  Alcotest.(check (list string)) "clean unload" [] (vkinds o.o_result)

let test_input_stream () =
  let m =
    build ~name:"inp" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             call_import "read_int";
             call_import "print_int";
             call_import "read_int";
             call_import "print_int";
             call_import "read_int";
             call_import "print_int" (* exhausted: 0 *);
           ]
          @ Progs.exit0);
      ]
  in
  let vm = Jt_vm.Vm.make ~registry:[ m; Jt_workloads.Stdlibs.libc ] () in
  Jt_vm.Vm.set_input vm [ 11; 22 ];
  Jt_vm.Vm.boot vm ~main:"inp";
  Jt_vm.Vm.run vm;
  Alcotest.(check string) "stream" "11\n22\n0\n" (Jt_vm.Vm.output vm)

let () =
  Alcotest.run "lifecycle"
    [
      ( "alloc",
        [
          Alcotest.test_case "calloc" `Quick test_calloc_zeroed;
          Alcotest.test_case "realloc copies" `Quick test_realloc_copies;
          Alcotest.test_case "realloc uaf" `Quick test_realloc_uaf_detected;
        ] );
      ( "modules",
        [
          Alcotest.test_case "dlclose" `Quick test_dlclose_unloads;
          Alcotest.test_case "pinned" `Quick test_dlclose_pinned_refused;
          Alcotest.test_case "use after unload" `Quick test_use_after_unload_flagged_by_jcfi;
        ] );
      ("input", [ Alcotest.test_case "read_int" `Quick test_input_stream ]);
    ]
