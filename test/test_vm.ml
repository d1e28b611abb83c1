(* End-to-end tests of the assembler -> loader -> interpreter pipeline. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let exit_ok = [ movi Reg.r0 0; syscall Sysno.exit_ ]

let run ?(registry = []) main_mod =
  Jt_vm.Vm.run_native ~registry:(main_mod :: registry) ~main:main_mod.Jt_obj.Objfile.name ()

let check_exit r =
  match r.Jt_vm.Vm.r_status with
  | Jt_vm.Vm.Exited 0 -> ()
  | s -> Alcotest.failf "bad status: %a (output %S)" Jt_vm.Vm.pp_status s r.r_output

let test_arith () =
  let m =
    build ~name:"arith" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r1 21;
             movi Reg.r2 2;
             binop Insn.Mul Reg.r1 Reg.r2;
             mov Reg.r0 Reg.r1;
             syscall Sysno.write_int;
           ]
          @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "42\n" r.r_output

let test_loop_and_branch () =
  (* sum 1..10 via a loop with a conditional branch *)
  let m =
    build ~name:"loop" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r1 0;
             movi Reg.r2 1;
             label "head";
             cmpi Reg.r2 10;
             jcc Insn.Gt "done";
             add Reg.r1 Reg.r2;
             addi Reg.r2 1;
             jmp "head";
             label "done";
             mov Reg.r0 Reg.r1;
             syscall Sysno.write_int;
           ]
          @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "55\n" r.r_output

let test_call_and_stack () =
  let m =
    build ~name:"calls" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "double"
          (Abi.frame_enter ~locals:8 ()
          @ [ add Reg.r0 Reg.r0 ]
          @ Abi.frame_leave ~locals:8 ());
        func "main"
          ([ movi Reg.r0 33; call "double"; syscall Sysno.write_int ] @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "66\n" r.r_output

let test_canary_frame () =
  let m =
    build ~name:"canary" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      ~deps:[ "libc.so" ]
      [
        func "f"
          (Abi.frame_enter ~canary:true ~locals:16 ()
          @ [ sti (Abi.local 16 0) 7; ld Reg.r0 (Abi.local 16 0) ]
          @ Abi.frame_leave ~canary:true ~locals:16 ());
        func "main" ([ call "f"; syscall Sysno.write_int ] @ exit_ok);
      ]
  in
  (* __stack_chk_fail is imported; provide a libc with it. *)
  let libc =
    build ~name:"libc.so" ~kind:Jt_obj.Objfile.Shared
      [
        func ~exported:true "__stack_chk_fail"
          [ movi Reg.r0 134; syscall Sysno.exit_ ];
      ]
  in
  let r = run ~registry:[ libc ] m in
  check_exit r;
  Alcotest.(check string) "output" "7\n" r.r_output

let test_canary_smash_detected () =
  (* Overwrite the canary slot; the epilogue check must call
     __stack_chk_fail, which exits 134. *)
  let m =
    build ~name:"smash" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      ~deps:[ "libc.so" ]
      [
        func "f"
          (Abi.frame_enter ~canary:true ~locals:16 ()
          @ [ sti (mem_b ~disp:(-4) Reg.fp) 0xDEAD ]
          @ Abi.frame_leave ~canary:true ~locals:16 ());
        func "main" ([ call "f" ] @ exit_ok);
      ]
  in
  let libc =
    build ~name:"libc.so" ~kind:Jt_obj.Objfile.Shared
      [
        func ~exported:true "__stack_chk_fail"
          [ movi Reg.r0 134; syscall Sysno.exit_ ];
      ]
  in
  let r = run ~registry:[ libc ] m in
  match r.r_status with
  | Jt_vm.Vm.Exited 134 -> ()
  | s -> Alcotest.failf "expected exit 134, got %a" Jt_vm.Vm.pp_status s

let test_plt_lazy_binding () =
  (* Call an imported function twice: first call goes through the lazy
     resolver, second through the patched GOT. *)
  let libm =
    build ~name:"libm.so" ~kind:Jt_obj.Objfile.Shared
      [ func ~exported:true "triple" [ muli Reg.r0 3; ret ] ]
  in
  let m =
    build ~name:"plt" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libm.so" ]
      ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 5;
             call_import "triple";
             call_import "triple";
             syscall Sysno.write_int;
           ]
          @ exit_ok);
      ]
  in
  let r = run ~registry:[ libm ] m in
  check_exit r;
  Alcotest.(check string) "output" "45\n" r.r_output

let test_pic_module_data () =
  (* A PIC main executable reading its own data via PC-relative
     addressing, plus a function-pointer table in .data (relocated). *)
  let m =
    build ~name:"pie" ~kind:Jt_obj.Objfile.Exec_pic ~entry:"main"
      ~datas:
        [
          data "nums" [ Dword32 11; Dword32 31 ];
          data "table" [ Dfuncptr "inc"; Dfuncptr "dec" ];
        ]
      [
        func "inc" [ addi Reg.r0 1; ret ];
        func "dec" [ subi Reg.r0 1; ret ];
        func "main"
          ([
             ld Reg.r0 (mem_pc_data "nums");
             lea Reg.r3 (mem_pc_data "table");
             ld Reg.r4 (mem_b ~disp:0 Reg.r3);
             call_reg Reg.r4 (* inc: 12 *);
             ld Reg.r4 (mem_b ~disp:4 Reg.r3);
             call_reg Reg.r4 (* dec: 11 *);
             syscall Sysno.write_int;
           ]
          @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "11\n" r.r_output

let test_jump_table () =
  (* switch(2) via an inline jump table (data in code). *)
  let m =
    build ~name:"switch" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r1 2;
             addr_of_label ~pic:false Reg.r2 "table";
             I
               (Jt_asm.Sinsn.Sjmp_ind_m
                  (mem_bi ~scale:4 Reg.r2 Reg.r1));
             label "table";
             Inline_table [ "case0"; "case1"; "case2" ];
             label "case0";
             movi Reg.r0 100;
             jmp "out";
             label "case1";
             movi Reg.r0 200;
             jmp "out";
             label "case2";
             movi Reg.r0 300;
             label "out";
             syscall Sysno.write_int;
           ]
          @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "300\n" r.r_output

let test_dlopen_dlsym () =
  let plugin =
    build ~name:"plugin.so" ~kind:Jt_obj.Objfile.Shared
      [ func ~exported:true "answer" [ movi Reg.r0 4242; ret ] ]
  in
  let m =
    build ~name:"host" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
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
             addr_of_data ~pic:false Reg.r1 "symname";
             syscall Sysno.dlsym;
             call_reg Reg.r0;
             syscall Sysno.write_int;
           ]
          @ exit_ok);
      ]
  in
  let r = run ~registry:[ plugin ] m in
  check_exit r;
  Alcotest.(check string) "output" "4242\n" r.r_output

let test_heap_malloc_free () =
  let m =
    build ~name:"heap" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([
             movi Reg.r0 64;
             syscall Sysno.malloc;
             mov Reg.r6 Reg.r0;
             sti (mem_b ~disp:16 Reg.r6) 9001;
             ld Reg.r0 (mem_b ~disp:16 Reg.r6);
             syscall Sysno.write_int;
             mov Reg.r0 Reg.r6;
             syscall Sysno.free;
           ]
          @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "9001\n" r.r_output

let test_jit_codegen () =
  (* Generate a function at run time: mov r0, 77; ret — then call it. *)
  let insns at =
    [ Insn.Mov (Reg.r0, Insn.Imm 77); Insn.Ret ]
    |> List.fold_left
         (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
         ("", at)
    |> fst
  in
  let code = insns 0 in
  (* position-independent bytes: no pc-relative fields, so any base works *)
  let bytes_items = List.init (String.length code) (fun i -> Char.code code.[i]) in
  let store_code =
    List.concat
      (List.mapi
         (fun i b -> [ movi Reg.r2 b; I (Jt_asm.Sinsn.Sstore (Insn.W1, mem_b ~disp:i Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2)) ])
         bytes_items)
  in
  let m =
    build ~name:"jit" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([ movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
          @ store_code
          @ [
              mov Reg.r0 Reg.r6;
              movi Reg.r1 64;
              syscall Sysno.cache_flush;
              call_reg Reg.r6;
              syscall Sysno.write_int;
            ]
          @ exit_ok);
      ]
  in
  let r = run m in
  check_exit r;
  Alcotest.(check string) "output" "77\n" r.r_output

(* dlopen handle IDs must be monotonic.  Pre-fix they were allocated as
   [Hashtbl.length handles + 1], so open A, open B, close A, open C gave
   C the still-live handle of B and dlsym through B silently resolved
   into C. *)
let test_dlopen_handle_no_reuse () =
  let mk name v =
    build ~name ~kind:Jt_obj.Objfile.Shared
      [ func ~exported:true "val_" [ movi Reg.r0 v; ret ] ]
  in
  let pa = mk "pa.so" 111 and pb = mk "pb.so" 222 and pc = mk "pc.so" 333 in
  let dlsym_call_print handle_reg =
    [
      mov Reg.r0 handle_reg;
      addr_of_data ~pic:false Reg.r1 "sym";
      syscall Sysno.dlsym;
      call_reg Reg.r0;
      syscall Sysno.write_int;
    ]
  in
  let m =
    build ~name:"hdl" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      ~datas:
        [
          data "na" [ Dbytes "pa.so\x00" ];
          data "nb" [ Dbytes "pb.so\x00" ];
          data "nc" [ Dbytes "pc.so\x00" ];
          data "sym" [ Dbytes "val_\x00" ];
        ]
      [
        func "main"
          ([
             addr_of_data ~pic:true Reg.r0 "na";
             syscall Sysno.dlopen;
             mov Reg.r5 Reg.r0 (* handle A *);
             addr_of_data ~pic:true Reg.r0 "nb";
             syscall Sysno.dlopen;
             mov Reg.r6 Reg.r0 (* handle B *);
             mov Reg.r0 Reg.r5;
             syscall Sysno.dlclose (* close A *);
             addr_of_data ~pic:false Reg.r0 "nc";
             syscall Sysno.dlopen;
             mov Reg.r7 Reg.r0 (* handle C: must not alias B *);
           ]
          @ dlsym_call_print Reg.r6 (* through B: 222 *)
          @ dlsym_call_print Reg.r7 (* through C: 333 *)
          @ exit_ok);
      ]
  in
  let r = run ~registry:[ pa; pb; pc ] m in
  check_exit r;
  Alcotest.(check string) "live handles stay distinct" "222\n333\n" r.r_output

(* Whether the decode table holds an entry at [a]. *)
let cached vm a = List.mem_assoc a (Jt_vm.Vm.decoded_spans vm)

(* flush_range must invalidate by actual [addr, addr+len) byte overlap.
   The old heuristic dropped every entry within 16 bytes before the
   flushed start (over-invalidation) and would have let an instruction
   longer than 16 bytes survive a flush of its tail (stale bytes). *)
let test_flush_range_overlap () =
  let m =
    build ~name:"fl" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [ func "main" exit_ok ]
  in
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  Jt_vm.Vm.boot vm ~main:"fl";
  let entry = Jt_loader.Loader.entry_point vm.loader in
  (match Jt_vm.Vm.fetch vm entry with
  | Some d -> Alcotest.(check bool) "entry decodes" true (d.d_len > 0)
  | None -> Alcotest.fail "entry must decode");
  (* flush a range just past the entry instruction (movi = 6 bytes): no
     overlap, so the entry must survive (the heuristic dropped it) *)
  Jt_vm.Vm.flush_range vm (entry + 8) 8;
  Alcotest.(check bool) "non-overlapping entry survives" true
    (cached vm entry);
  (* an entry whose span overlaps the flushed range is dropped no matter
     how far before the start it begins *)
  Jt_vm.Vm.cache_decoded vm 0x0070_0000 (Insn.Nop, 20);
  Jt_vm.Vm.flush_range vm (0x0070_0000 + 17) 4;
  Alcotest.(check bool) "overlapping long entry dropped" false
    (cached vm 0x0070_0000);
  (* and a flush covering the entry start drops it *)
  Jt_vm.Vm.flush_range vm entry 4;
  Alcotest.(check bool) "covered entry dropped" false
    (cached vm entry)

(* The decode table holds each address once, ascending, and [fetch]
   serves the entry it lists. *)
let check_table (vm : Jt_vm.Vm.t) =
  let spans = Jt_vm.Vm.decoded_spans vm in
  let addrs = List.map fst spans in
  Alcotest.(check (list int)) "ascending, each address once"
    (List.sort_uniq Int.compare addrs) addrs;
  List.iter
    (fun (a, len) ->
      match Jt_vm.Vm.fetch vm a with
      | Some d when d.d_len = len -> ()
      | Some d -> Alcotest.failf "0x%x: fetch length %d, table %d" a d.d_len len
      | None -> Alcotest.failf "0x%x listed but not fetched" a)
    spans

(* A replaced entry takes its new span with it: while the entry just
   below a page boundary is 20 bytes long a flush of the next page drops
   it, once it is replaced by a 1-byte one the same flush spares it. *)
let test_decode_table_replace () =
  let m = Progs.sum_prog ~n:20 () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  Jt_vm.Vm.boot vm ~main:"sum";
  Jt_vm.Vm.run vm;
  check_exit (Jt_vm.Vm.result vm);
  Alcotest.(check bool) "decoded something" true
    (List.length (Jt_vm.Vm.decoded_spans vm) > 10);
  check_table vm;
  let a = 0x0070_0FFE and next_page = 0x0070_1000 in
  let span () = List.assoc_opt a (Jt_vm.Vm.decoded_spans vm) in
  Jt_vm.Vm.cache_decoded vm a (Insn.Nop, 1);
  check_table vm;
  Jt_vm.Vm.cache_decoded vm a (Insn.Nop, 20);
  check_table vm;
  Alcotest.(check (option int)) "replaced span" (Some 20) (span ());
  Jt_vm.Vm.flush_range vm next_page 4;
  Alcotest.(check (option int)) "long entry dropped by the next page's flush"
    None (span ());
  Jt_vm.Vm.cache_decoded vm a (Insn.Nop, 20);
  Jt_vm.Vm.cache_decoded vm a (Insn.Nop, 20);
  check_table vm;
  Jt_vm.Vm.cache_decoded vm a (Insn.Nop, 1);
  check_table vm;
  Jt_vm.Vm.flush_range vm next_page 4;
  Alcotest.(check (option int)) "short entry spared by the next page's flush"
    (Some 1) (span ())

(* [Vm.run] keeps an entry from an address's second execution on: after
   a run, the table lists exactly the addresses the reference loop
   executed twice or more (none of these programs stores into code it
   has run). *)
let test_second_execution () =
  let fz = Jt_fuzz.Fuzz.build (List.hd (Jt_fuzz.Fuzz.cases_of ~base_seed:1 ~seeds:1)) in
  List.iter
    (fun (registry, main) ->
      let counts = Hashtbl.create 256 in
      let vm = Jt_vm.Vm.make ~registry () in
      Jt_vm.Vm.boot vm ~main;
      Ref_step.run vm ~on_step:(fun pc ->
          Hashtbl.replace counts pc
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts pc)));
      let twice =
        Hashtbl.fold (fun pc n acc -> if n >= 2 then pc :: acc else acc) counts []
        |> List.sort Int.compare
      in
      let vm = Jt_vm.Vm.make ~registry () in
      Jt_vm.Vm.boot vm ~main;
      Jt_vm.Vm.run vm;
      Alcotest.(check bool) (main ^ ": some address runs once") true
        (Hashtbl.fold (fun _ n acc -> acc || n = 1) counts false);
      Alcotest.(check (list int)) (main ^ ": kept entries") twice
        (List.map fst (Jt_vm.Vm.decoded_spans vm)))
    [ (Progs.registry_for (Progs.sum_prog ()), "sum");
      (Progs.registry_for (Progs.indirect_prog ()), "indirect");
      (Progs.registry_for (Progs.jit_prog ~calls:2 ()), "jitprog");
      ([ fz; Jt_workloads.Stdlibs.libc ], fz.name) ]

(* A flush whose range runs past 0xFFFF_FFFF wraps to address 0: it
   drops the entries on both sides of the wrap, and nothing outside. *)
let test_flush_range_wraps () =
  let vm = Jt_vm.Vm.make ~registry:[] () in
  List.iter
    (fun a -> Jt_vm.Vm.cache_decoded vm a (Insn.Nop, 1))
    [ 0xFFFF_EFF0; 0xFFFF_FFF0; 0x10; 0x1010 ];
  Jt_vm.Vm.flush_range vm 0xFFFF_F000 0x2000;
  List.iter
    (fun (a, kept) ->
      Alcotest.(check bool) (Printf.sprintf "0x%x kept" a) kept (cached vm a))
    [ (0xFFFF_EFF0, true); (0xFFFF_FFF0, false); (0x10, false); (0x1010, true) ];
  check_table vm

(* Code that runs once leaves no entry, so the JIT call and its print
   run twice. *)
let test_flush_cost () =
  let m = Progs.jit_prog ~calls:2 () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  Jt_vm.Vm.boot vm ~main:m.name;
  Jt_vm.Vm.run vm;
  check_exit (Jt_vm.Vm.result vm);
  Progs.check_flush_cost vm ~spans:(fun () -> Jt_vm.Vm.decoded_spans vm)

(* -- decode front coherence under plain Vm.run -- *)

let store_bytes code =
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

(* A loop that lives in the JIT region and rewrites its own body.  Each
   trip prints the immediate of its first instruction, [mov r0, imm];
   every second trip then stores 10 * trips into that immediate and
   (with [flush]) flushes the region, so each version of the code runs
   twice and the second run comes from the decode front.  The loop spans
   fewer than 256 bytes, so no two of its instructions share a slot. *)
let jit_patch_loop ~flush =
  let base = fst Jt_vm.Vm.jit_region in
  let mov_imm v = Insn.Mov (Reg.r0, Insn.Imm v) in
  let imm_off =
    let first = Encode.encode ~at:base (mov_imm 0x1122_3344) in
    let rec find i =
      if String.sub first i 4 = "\x44\x33\x22\x11" then i else find (i + 1)
    in
    find 0
  in
  let head skip =
    [ mov_imm 0; Insn.Syscall Sysno.write_int;
      Insn.Binop (Insn.Add, Reg.r5, Insn.Imm 1); Insn.Test (Reg.r5, Insn.Imm 1);
      Insn.Jcc (Insn.Ne, skip); Insn.Mov (Reg.r2, Insn.Reg Reg.r5);
      Insn.Binop (Insn.Mul, Reg.r2, Insn.Imm 10);
      Insn.Store (Insn.W4, Insn.mem_base ~disp:imm_off Reg.r6, Insn.Reg Reg.r2) ]
    @
    if flush then
      [ Insn.Mov (Reg.r0, Insn.Reg Reg.r6); Insn.Mov (Reg.r1, Insn.Imm 256);
        Insn.Syscall Sysno.cache_flush ]
    else []
  in
  let size insns = List.fold_left (fun n i -> n + Encode.length i) 0 insns in
  let skip = base + size (head base) in
  let code =
    List.fold_left
      (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
      ("", base)
      (head skip
      @ [ Insn.Cmp (Reg.r5, Insn.Imm 4); Insn.Jcc (Insn.Lt, base); Insn.Ret ])
    |> fst
  in
  let m =
    build ~name:"jitloop" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [
        func "main"
          ([ movi Reg.r0 256; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
          @ store_bytes code
          @ [
              mov Reg.r0 Reg.r6;
              movi Reg.r1 256;
              syscall Sysno.cache_flush;
              movi Reg.r5 0;
              call_reg Reg.r6;
            ]
          @ exit_ok);
      ]
  in
  run m

let test_front_jit_flush () =
  let r = jit_patch_loop ~flush:true in
  check_exit r;
  Alcotest.(check string) "each trip runs the rewritten code" "0\n0\n20\n20\n"
    r.r_output

let test_front_jit_no_flush () =
  let r = jit_patch_loop ~flush:false in
  check_exit r;
  Alcotest.(check string) "the store alone drops the cached instruction"
    "0\n0\n20\n20\n" r.r_output

let test_front_cache_decoded_hot () =
  let m =
    build ~name:"spin" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [ func "main" [ label "top"; addi Reg.r1 1; jmp "top" ] ]
  in
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  Jt_vm.Vm.boot vm ~main:"spin";
  let add1 = Insn.Binop (Insn.Add, Reg.r1, Insn.Imm 1) in
  let step () =
    Jt_vm.Vm.run ~fuel:1 vm;
    vm.status <- Jt_vm.Vm.Running
  in
  for _ = 1 to 100 do
    step ()
  done;
  (* stop with the hot add next *)
  while
    match Jt_vm.Vm.fetch vm vm.pc with
    | Some d -> d.d_insn <> add1
    | None -> Alcotest.fail "spin loop must decode"
  do
    step ()
  done;
  let before = Jt_vm.Vm.get vm Reg.r1 in
  Alcotest.(check bool) "hot loop ran" true (before >= 49);
  let add100 = Insn.Binop (Insn.Add, Reg.r1, Insn.Imm 100) in
  Jt_vm.Vm.cache_decoded vm vm.pc (add100, Encode.length add100);
  step ();
  Alcotest.(check int) "next step runs the replacement" (before + 100)
    (Jt_vm.Vm.get vm Reg.r1)

(* A guest store into the bytes of an entry placed by [cache_decoded]
   drops it, as it drops a decoded entry, also where nothing was ever
   decoded: with the first byte of an [add r1, 1] in memory stored back
   unchanged, the add runs from memory, not the placed [add r1, 100]. *)
let test_front_cache_decoded_store () =
  let m =
    build ~name:"spin" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
      [ func "main" [ label "top"; jmp "top" ] ]
  in
  let vm = Jt_vm.Vm.make ~registry:[ m ] () in
  Jt_vm.Vm.boot vm ~main:"spin";
  let at = fst Jt_vm.Vm.jit_region in
  let add1 = Insn.Binop (Insn.Add, Reg.r1, Insn.Imm 1) in
  String.iteri
    (fun i c -> Jt_mem.Memory.write8 vm.mem (at + i) (Char.code c))
    (Encode.encode ~at add1);
  let add100 = Insn.Binop (Insn.Add, Reg.r1, Insn.Imm 100) in
  Jt_vm.Vm.cache_decoded vm at (add100, Encode.length add100);
  Jt_vm.Vm.set vm Reg.r2 at;
  Jt_vm.Vm.set vm Reg.r3 (Jt_mem.Memory.read8 vm.mem at);
  let store = Insn.Store (Insn.W1, Insn.mem_base Reg.r2, Insn.Reg Reg.r3) in
  Jt_vm.Vm.compile ~at store (Encode.length store) vm;
  vm.pc <- at;
  Jt_vm.Vm.set vm Reg.r1 0;
  Jt_vm.Vm.run ~fuel:1 vm;
  Alcotest.(check int) "the add runs from memory" 1 (Jt_vm.Vm.get vm Reg.r1)

(* Two non-PIC plugins load at the same base with the same layout, so
   the second one's [f] sits at the addresses the first one's loop made
   hot.  The host is PIC, so it loads elsewhere. *)
let test_front_dlclose_reopen () =
  let plugin name v =
    build ~name ~kind:Jt_obj.Objfile.Exec_nonpic
      [
        func ~exported:true "f"
          [
            movi Reg.r5 0;
            label "loop";
            movi Reg.r0 v;
            syscall Sysno.write_int;
            addi Reg.r5 1;
            cmpi Reg.r5 3;
            jcc Insn.Lt "loop";
            ret;
          ];
      ]
  in
  let call_f name =
    [
      addr_of_data ~pic:true Reg.r0 name;
      syscall Sysno.dlopen;
      mov Reg.r7 Reg.r0;
      addr_of_data ~pic:true Reg.r1 "sym";
      syscall Sysno.dlsym;
      call_reg Reg.r0;
      mov Reg.r0 Reg.r7;
      syscall Sysno.dlclose;
    ]
  in
  let m =
    build ~name:"reopen" ~kind:Jt_obj.Objfile.Exec_pic ~entry:"main"
      ~datas:
        [
          data "na" [ Dbytes "pa.so\x00" ];
          data "nb" [ Dbytes "pb.so\x00" ];
          data "sym" [ Dbytes "f\x00" ];
        ]
      [ func "main" (call_f "na" @ call_f "nb" @ exit_ok) ]
  in
  let r = run ~registry:[ plugin "pa.so" 111; plugin "pb.so" 222 ] m in
  check_exit r;
  Alcotest.(check string) "the reopened base runs the new module"
    "111\n111\n111\n222\n222\n222\n" r.r_output

(* -- compiled ops against the reference model -- *)

type mstate = {
  ms_at : int;
  ms_regs : int array;
  ms_flags : int;
  ms_bytes : int array;  (* seeded around each address the insn may touch *)
}

let mem_of (i : Insn.t) =
  match i with
  | Insn.Lea (_, m)
  | Load (_, _, m)
  | Store (_, m, _)
  | Jmp_ind (None, Some m)
  | Call_ind (None, Some m) ->
    Some m
  | _ -> None

(* A fresh machine in state [st], with [st.ms_bytes] written around the
   effective address of [i]'s memory operand and around [sp].  Returns
   the machine and the addresses seeded (the only memory an instruction
   other than a syscall can touch). *)
let machine st (i : Insn.t) len =
  let vm = Jt_vm.Vm.make ~registry:[] () in
  Array.iteri (fun k v -> Jt_vm.Vm.set vm (Reg.of_index k) v) st.ms_regs;
  Flags.unpack vm.flags st.ms_flags;
  vm.pc <- st.ms_at;
  let n = Array.length st.ms_bytes in
  let around a = List.init n (fun k -> Word.of_int (a - (n / 2) + k)) in
  let touched =
    (match mem_of i with
    | Some m -> around (Ref_step.eval_mem vm ~next_pc:(st.ms_at + len) m)
    | None -> [])
    @ around (Jt_vm.Vm.get vm Reg.sp)
  in
  List.iteri
    (fun k a -> Jt_mem.Memory.write8 vm.mem a st.ms_bytes.(k mod n))
    touched;
  (vm, touched)

let observe (vm : Jt_vm.Vm.t) touched raised =
  ( (Array.to_list vm.regs, Flags.pack vm.flags, vm.pc, vm.icount, vm.cycles),
    (vm.status, Jt_vm.Vm.output vm, raised),
    List.map (Jt_mem.Memory.read8 vm.mem) touched )

let run_one f vm =
  match f vm with () -> "" | exception e -> Printexc.to_string e

(* Compare [Vm.compile ~at i len] with the reference on two copies of
   the same machine.  For an indirect call or jump, [Vm.compile_target]
   read in the pre-state must also name the PC the reference reaches;
   for any other instruction it must be [None]. *)
let compiled_matches st (i : Insn.t) =
  (* an operand-less indirect transfer has no encoding *)
  let len = try Encode.length i with Invalid_argument _ -> 2 in
  let at = st.ms_at in
  let vm_c, touched = machine st i len in
  let vm_r, _ = machine st i len in
  let op = Jt_vm.Vm.compile ~at i len in
  let target =
    Option.map (fun read -> read vm_c) (Jt_vm.Vm.compile_target ~next_pc:(at + len) i)
  in
  let raised_c = run_one op vm_c in
  let raised_r = run_one (fun vm -> Ref_step.step_decoded vm ~at i len) vm_r in
  let target_ok =
    match (i, target) with
    | (Jmp_ind (None, None) | Call_ind (None, None)), None -> true
    | (Jmp_ind _ | Call_ind _), Some pc -> pc = vm_r.pc
    | (Jmp_ind _ | Call_ind _), None -> false
    | _, target -> Option.is_none target
  in
  target_ok && observe vm_c touched raised_c = observe vm_r touched raised_r

let check_compiled name st i =
  if not (compiled_matches st i) then
    Alcotest.failf "%s: compiled %a diverges from the reference" name Insn.pp i

let words =
  [ 0; 1; 2; 31; 32; 33; 64; 0xFFF; 0x1000; 0xFFFE; 0x7FFF_FFFF; 0x8000_0000;
    0xFFFF_FFFD; 0xFFFF_FFFE; 0xFFFF_FFFF ]

let gen_word = QCheck2.Gen.(oneof [ Gen_isa.gen_imm; oneofl words ])

let gen_state =
  let open QCheck2.Gen in
  let* ms_at = gen_word in
  let* ms_regs = array_repeat Reg.count gen_word in
  let* ms_flags = int_bound 15 in
  let* ms_bytes = array_repeat 16 (int_bound 255) in
  return { ms_at; ms_regs; ms_flags; ms_bytes }

(* Syscalls whose cost does not scale with a random register (calloc
   and realloc loop over their size argument, cache_flush walks every
   page of its range, malloc reserves it), plus the emit hooks' numbers
   and one unassigned number. *)
let safe_syscalls =
  Sysno.[ exit_; write_int; write_ch; free; dlopen; dlsym; mmap_code; resolve;
          dlclose; read_int; emit_site; emit_pin; 200 ]

let gen_vm_insn =
  QCheck2.Gen.map
    (function
      | Insn.Syscall n ->
        Insn.Syscall (List.nth safe_syscalls (n mod List.length safe_syscalls))
      | i -> i)
    Gen_isa.gen_insn

let prop_compiled_ops =
  QCheck2.Test.make ~name:"compiled ops match the reference" ~count:5000
    ~print:(fun (i, st) ->
      Format.asprintf "%a at 0x%x regs [%s] flags %d" Insn.pp i st.ms_at
        (String.concat "; " (List.map string_of_int (Array.to_list st.ms_regs)))
        st.ms_flags)
    (QCheck2.Gen.pair gen_vm_insn gen_state)
    (fun (i, st) -> compiled_matches st i)

let base_state =
  {
    ms_at = 0x0040_1000;
    ms_regs = Array.init Reg.count (fun k -> 0x100 * (k + 1));
    ms_flags = 0;
    ms_bytes = Array.init 16 (fun k -> 0xA0 + k);
  }

let with_regs st assoc =
  let regs = Array.copy st.ms_regs in
  List.iter (fun (r, v) -> regs.(Reg.index r) <- v) assoc;
  { st with ms_regs = regs }

let test_compiled_edge_cases () =
  let r1 = Reg.r1 and r2 = Reg.r2 and r3 = Reg.r3 in
  (* W1/W2/W4 accesses that cross a page or wrap past 0xFFFFFFFF *)
  List.iter
    (fun w ->
      List.iter
        (fun base ->
          let st = with_regs base_state [ (r2, base) ] in
          let m = Insn.mem_base r2 in
          check_compiled "load" st (Insn.Load (w, r1, m));
          check_compiled "store reg" st (Insn.Store (w, m, Insn.Reg r3));
          check_compiled "store imm" st (Insn.Store (w, m, Insn.Imm 0xDEAD_BEEF)))
        [ 0xFFD; 0xFFE; 0xFFF; 0xFFFF_FFFD; 0xFFFF_FFFE; 0xFFFF_FFFF ])
    [ Insn.W1; Insn.W2; Insn.W4 ];
  (* PC-relative with an index, absolute with an index, both wrapping *)
  List.iter
    (fun (idx, scale, disp) ->
      let st = with_regs base_state [ (r3, idx) ] in
      let pcrel = { Insn.base = Some Insn.Bpc; index = Some r3; scale; disp } in
      let abs = { Insn.base = None; index = Some r3; scale; disp } in
      check_compiled "bpc+index lea" st (Insn.Lea (r1, pcrel));
      check_compiled "bpc+index load" st (Insn.Load (Insn.W4, r1, pcrel));
      check_compiled "abs+index load" st (Insn.Load (Insn.W2, r1, abs));
      check_compiled "bpc+index jmp" st (Insn.jmp_ind_mem pcrel))
    [ (0, 1, 0); (3, 4, 0x10); (0xFFFF_FFFF, 8, 0xFFFF_FFF0); (0x4000_0000, 8, 0) ];
  (* shift counts of 32 and more, and multiply overflow *)
  List.iter
    (fun n ->
      let st = with_regs base_state [ (r1, 0x8000_0001); (r2, n) ] in
      List.iter
        (fun op ->
          check_compiled "shift reg" st (Insn.Binop (op, r1, Insn.Reg r2));
          check_compiled "shift imm" st (Insn.Binop (op, r1, Insn.Imm n)))
        [ Insn.Shl; Insn.Shr; Insn.Sar ])
    [ 0; 1; 31; 32; 33; 63; 64; 0xFFFF_FFFF ];
  List.iter
    (fun (a, b) ->
      let st = with_regs base_state [ (r1, a); (r2, b) ] in
      check_compiled "mul reg" st (Insn.Binop (Insn.Mul, r1, Insn.Reg r2));
      check_compiled "mul imm" st (Insn.Binop (Insn.Mul, r1, Insn.Imm b));
      check_compiled "add carry" st (Insn.Binop (Insn.Add, r1, Insn.Reg r2));
      check_compiled "sub borrow" st (Insn.Binop (Insn.Sub, r1, Insn.Imm b));
      check_compiled "cmp" st (Insn.Cmp (r1, Insn.Reg r2)))
    [ (0xFFFF_FFFF, 0xFFFF_FFFF); (0x1_0000, 0x1_0000); (0x8000_0000, 2);
      (0x7FFF_FFFF, 0x7FFF_FFFF) ];
  (* all ten conditions under all sixteen flag states *)
  List.iter
    (fun c ->
      for flags = 0 to 15 do
        check_compiled "jcc" { base_state with ms_flags = flags }
          (Insn.Jcc (c, 0x0040_2000))
      done)
    Insn.[ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ];
  (* push, pop, call and ret across an sp wrap *)
  List.iter
    (fun sp ->
      let st = with_regs base_state [ (Reg.sp, sp) ] in
      check_compiled "push reg" st (Insn.Push (Insn.Reg r1));
      check_compiled "push sp" st (Insn.Push (Insn.Reg Reg.sp));
      check_compiled "push imm" st (Insn.Push (Insn.Imm 0x1234_5678));
      check_compiled "pop" st (Insn.Pop r1);
      check_compiled "pop sp" st (Insn.Pop Reg.sp);
      check_compiled "call" st (Insn.Call 0x0040_3000);
      check_compiled "call_ind sp" st (Insn.call_ind_reg Reg.sp);
      check_compiled "ret" st Insn.Ret)
    [ 0; 2; 4; 0xFFFF_FFFC; 0xFFFF_FFFE ];
  (* operand-less indirect transfers fault *)
  check_compiled "jmp_ind none" base_state (Insn.Jmp_ind (None, None));
  check_compiled "call_ind none" base_state (Insn.Call_ind (None, None));
  (* the write_int and exit syscalls *)
  List.iter
    (fun v ->
      let st = with_regs base_state [ (Reg.r0, v) ] in
      check_compiled "write_int" st (Insn.Syscall Sysno.write_int);
      check_compiled "exit" st (Insn.Syscall Sysno.exit_))
    [ 0; 42; 0x8000_0000; 0xFFFF_FFFF ]

let () =
  Alcotest.run "vm"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "loop" `Quick test_loop_and_branch;
          Alcotest.test_case "call-stack" `Quick test_call_and_stack;
          Alcotest.test_case "canary-frame" `Quick test_canary_frame;
          Alcotest.test_case "canary-smash" `Quick test_canary_smash_detected;
          Alcotest.test_case "plt-lazy" `Quick test_plt_lazy_binding;
          Alcotest.test_case "pic-data" `Quick test_pic_module_data;
          Alcotest.test_case "jump-table" `Quick test_jump_table;
          Alcotest.test_case "dlopen" `Quick test_dlopen_dlsym;
          Alcotest.test_case "heap" `Quick test_heap_malloc_free;
          Alcotest.test_case "jit" `Quick test_jit_codegen;
          Alcotest.test_case "dlopen handle monotonic" `Quick
            test_dlopen_handle_no_reuse;
          Alcotest.test_case "flush-range overlap" `Quick
            test_flush_range_overlap;
          Alcotest.test_case "decode table replace" `Quick test_decode_table_replace;
          Alcotest.test_case "flush-range wraps" `Quick test_flush_range_wraps;
          Alcotest.test_case "flush cost" `Quick test_flush_cost;
          Alcotest.test_case "second execution" `Quick test_second_execution;
        ] );
      ( "decode-front",
        [
          Alcotest.test_case "jit rewrite with flush" `Quick test_front_jit_flush;
          Alcotest.test_case "jit rewrite without flush" `Quick
            test_front_jit_no_flush;
          Alcotest.test_case "cache_decoded on a hot address" `Quick
            test_front_cache_decoded_hot;
          Alcotest.test_case "store into a cache_decoded entry" `Quick
            test_front_cache_decoded_store;
          Alcotest.test_case "dlclose and reopen at the same base" `Quick
            test_front_dlclose_reopen;
        ] );
      ( "compiled-ops",
        Alcotest.test_case "edge cases" `Quick test_compiled_edge_cases
        :: List.map QCheck_alcotest.to_alcotest [ prop_compiled_ops ] );
    ]
