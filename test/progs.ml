(* A corpus of small programs shared by the test suites. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let exit0 = [ movi Reg.r0 0; syscall Sysno.exit_ ]

let libc =
  build ~name:"libc.so" ~kind:Jt_obj.Objfile.Shared
    [
      func ~exported:true "__stack_chk_fail" [ movi Reg.r0 134; syscall Sysno.exit_ ];
      func ~exported:true "malloc" [ syscall Sysno.malloc; ret ];
      func ~exported:true "calloc" [ syscall Sysno.calloc; ret ];
      func ~exported:true "realloc" [ syscall Sysno.realloc; ret ];
      func ~exported:true "free" [ syscall Sysno.free; ret ];
      func ~exported:true "print_int" [ syscall Sysno.write_int; ret ];
      func ~exported:true "read_int" [ syscall Sysno.read_int; ret ];
    ]

(* Sum an array of n ints on the heap, print, exit. *)
let sum_prog ?(name = "sum") ?(n = 50) () =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 (n * 4);
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           (* fill: a[i] = i *)
           movi Reg.r1 0;
           label "fill";
           cmpi Reg.r1 n;
           jcc Insn.Ge "fill_done";
           st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
           addi Reg.r1 1;
           jmp "fill";
           label "fill_done";
           (* sum *)
           movi Reg.r2 0;
           movi Reg.r1 0;
           label "sum";
           cmpi Reg.r1 n;
           jcc Insn.Ge "sum_done";
           ld Reg.r3 (mem_bi ~scale:4 Reg.r6 Reg.r1);
           add Reg.r2 Reg.r3;
           addi Reg.r1 1;
           jmp "sum";
           label "sum_done";
           mov Reg.r0 Reg.r2;
           call_import "print_int";
           mov Reg.r0 Reg.r6;
           call_import "free";
         ]
        @ exit0);
    ]

let sum_expected n = string_of_int (n * (n - 1) / 2) ^ "\n"

(* Heap overflow: writes one element past a buffer of [n]. *)
let heap_overflow_prog ?(name = "heap_ov") ?(n = 8) () =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 (n * 4);
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r2 7;
           st (mem_b ~disp:(n * 4) Reg.r6) Reg.r2 (* one past the end *);
           movi Reg.r0 1;
           call_import "print_int";
         ]
        @ exit0);
    ]

(* Use after free. *)
let uaf_prog ?(name = "uaf") () =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [
      func "main"
        ([
           movi Reg.r0 32;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           call_import "free";
           ld Reg.r1 (mem_b ~disp:0 Reg.r6);
           movi Reg.r0 2;
           call_import "print_int";
         ]
        @ exit0);
    ]

(* Stack overflow from a frame array into the canary. *)
let stack_smash_prog ?(name = "smash") ?(bad = true) () =
  let locals = 24 in
  (* 4 array slots + padding + canary at fp-4 *)
  let writes = if bad then 6 else 4 in
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [
      func "victim"
        (Abi.frame_enter ~canary:true ~locals ()
        @ [
            movi Reg.r1 0;
            label "w";
            cmpi Reg.r1 writes;
            jcc Insn.Ge "wdone";
            lea Reg.r2 (mem_b ~disp:(-locals) Reg.fp);
            st (mem_bi ~scale:4 Reg.r2 Reg.r1) Reg.r1;
            addi Reg.r1 1;
            jmp "w";
            label "wdone";
            movi Reg.r0 3;
          ]
        @ Abi.frame_leave ~canary:true ~locals ())
      (* note: with 6 writes the 6th (index 5) lands on fp-4, the canary *);
      func "main" ([ call "victim"; call_import "print_int" ] @ exit0);
    ]

(* Machine code for [insns] placed at [at]. *)
let encode_at at insns =
  List.fold_left
    (fun (acc, a) i -> (acc ^ Encode.encode ~at:a i, a + Encode.length i))
    ("", at) insns
  |> fst

(* Guest code that writes [code] at the address held in [r6]. *)
let store_code code =
  List.concat
    (List.mapi
       (fun i c ->
         [
           movi Reg.r2 (Char.code c);
           I (Jt_asm.Sinsn.Sstore (Insn.W1, mem_b ~disp:i Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
         ])
       (List.init (String.length code) (String.get code)))

(* JIT: generate "mov r0, 123; ret" at run time and call it [calls]
   times, printing each result. *)
let jit_prog ?(name = "jitprog") ?(value = 123) ?(calls = 1) () =
  let store_code =
    store_code (encode_at 0 [ Insn.Mov (Reg.r0, Insn.Imm value); Insn.Ret ])
  in
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [
      func "main"
        ([ movi Reg.r0 64; syscall Sysno.mmap_code; mov Reg.r6 Reg.r0 ]
        @ store_code
        @ [
            mov Reg.r0 Reg.r6;
            movi Reg.r1 64;
            syscall Sysno.cache_flush;
          ]
        @ (if calls = 1 then [ call_reg Reg.r6; call_import "print_int" ]
           else
             [
               movi Reg.r7 calls;
               label "again";
               call_reg Reg.r6;
               call_import "print_int";
               addi Reg.r7 (-1);
               cmpi Reg.r7 0;
               jcc Insn.Gt "again";
             ])
        @ exit0);
    ]

(* A shared library loaded via dlopen, never declared in deps. *)
let plugin =
  build ~name:"plugin.so" ~kind:Jt_obj.Objfile.Shared
    [ func ~exported:true "answer" [ movi Reg.r0 777; ret ] ]

let dlopen_prog ?(name = "dlo") () =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
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
           call_import "print_int";
         ]
        @ exit0);
    ]

(* Indirect calls through a function-pointer table + a switch via an
   inline jump table: exercises CFI-relevant control flow. *)
let indirect_prog ?(name = "indirect") () =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    ~datas:[ data "table" [ Dfuncptr "addone"; Dfuncptr "double_" ] ]
    [
      func "addone" [ addi Reg.r0 1; ret ];
      func "double_" [ add Reg.r0 Reg.r0; ret ];
      func "main"
        ([
           movi Reg.r0 10;
           addr_of_data ~pic:false Reg.r3 "table";
           ld Reg.r4 (mem_b ~disp:0 Reg.r3);
           call_reg Reg.r4 (* 11 *);
           ld Reg.r4 (mem_b ~disp:4 Reg.r3);
           call_reg Reg.r4 (* 22 *);
           (* switch(1) via inline table, with the bounds check every
              compiled switch carries (and jump-table recovery keys on) *)
           movi Reg.r1 1;
           cmpi Reg.r1 1;
           jcc Insn.Ugt "out";
           addr_of_label ~pic:false Reg.r2 "jt";
           I (Jt_asm.Sinsn.Sjmp_ind_m (mem_bi ~scale:4 Reg.r2 Reg.r1));
           label "jt";
           Inline_table [ "c0"; "c1" ];
           label "c0";
           addi Reg.r0 100;
           jmp "out";
           label "c1";
           addi Reg.r0 200;
           label "out";
           call_import "print_int";
         ]
        @ exit0);
    ]

(* A helper reached by a direct call, and a heap overflow, at any symtab
   level: with full symbols the helper is a symbol, stripped it is
   inferred from the call. *)
let stripped_prog ~symtab_level =
  build ~name:"sapp" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~symtab_level ~entry:"main"
    [
      func "helper" [ muli Reg.r0 3; ret ];
      func "main"
        ([
           movi Reg.r0 32;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r0 7;
           call "helper";
           st (mem_b ~disp:32 Reg.r6) Reg.r0 (* heap overflow *);
           call_import "print_int";
         ]
        @ exit0);
    ]

let registry_for m = [ m; libc; plugin ]

let run_native m =
  Jt_vm.Vm.run_native ~registry:(registry_for m) ~main:m.Jt_obj.Objfile.name ()

(* ---- persisted artifacts: the codec suites' shared checks ---- *)

(* bzip2's main module and its static analysis: the subject of every
   codec's byte-flip test. *)
let bzip2_main =
  lazy
    (List.find
       (fun (m : Jt_obj.Objfile.t) -> String.equal m.name "bzip2")
       (Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2")).w_registry)

let bzip2_analysis =
  lazy (Janitizer.Static_analyzer.compute (Lazy.force bzip2_main))

let bzip2_jasan_rules () =
  let tool, _ = Jt_jasan.Jasan.create () in
  tool.Janitizer.Tool.t_static (Lazy.force bzip2_analysis)

(* [f] must raise [Decode_error] naming [format] and [reason]. *)
let expect_decode_error ~format ~reason label f =
  match f () with
  | _ -> Alcotest.failf "%s: decode accepted a bad encoding" label
  | exception Jt_codec.Codec.Decode_error e ->
    Alcotest.(check string) (label ^ ": format") format e.format;
    Alcotest.(check string) (label ^ ": reason") reason e.reason

(* Every one-bit flip of [enc] ([bits_of i] are the bits flipped in byte
   [i]) goes through [check], then every proper prefix must raise
   [Decode_error] naming [format].  Any other exception escapes and
   fails the test. *)
let sweep ~format ?(bits_of = fun _ -> [ 0; 1; 2; 3; 4; 5; 6; 7 ]) ~check
    decode enc =
  let rejected what = function
    | Jt_codec.Codec.Decode_error e when String.equal e.format format -> ()
    | Jt_codec.Codec.Decode_error e ->
      Alcotest.failf "%s: error names format %s, not %s" what e.format format
    | e -> raise e
  in
  (* One buffer is flipped and restored in place: a fresh copy per flip
     would allocate the artifact's size once per bit.  [decode] keeps no
     reference to its input. *)
  let b = Bytes.of_string enc in
  for i = 0 to String.length enc - 1 do
    List.iter
      (fun bit ->
        let toggle () = Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl bit)) in
        toggle ();
        let s = Bytes.unsafe_to_string b in
        let what = Printf.sprintf "bit %d of byte %d" bit i in
        (match decode s with
        | v -> check what s v
        | exception e -> rejected what e);
        toggle ())
      (bits_of i)
  done;
  for n = 0 to String.length enc - 1 do
    match decode (String.sub enc 0 n) with
    | _ -> Alcotest.failf "truncation to %d bytes accepted" n
    | exception e -> rejected (Printf.sprintf "truncation to %d bytes" n) e
  done

(* A sealed artifact accepts no flip at all. *)
let sealed_sweep ~format ?bits_of decode enc =
  sweep ~format ?bits_of decode enc ~check:(fun what _ _ ->
      Alcotest.failf "%s: flipped %s artifact accepted" what format)

(* -- flush cost: the decode table and the DBT's block table -- *)

(* Whether a flush of [start, start + len) covers a byte of the span
   [(a, l)], byte by byte on the circle of 2^32 addresses. *)
let overlaps ~start ~len (a, l) =
  let rec any j =
    j < len && ((start + j - a) land Word.mask < max l 1 || any (j + 1))
  in
  any 0

(* A table filled by running [jit_prog] (code cached in the main module,
   the PIC libc and the JIT region), seen through [spans] and flushed
   through [Vm.flush_range].  A few partial flushes each drop exactly
   the spans they overlap; then 1,000 flushes of the whole address space
   empty the table, in well under a second, where a flush that walked
   every 4 KiB page of its range took 20–40 ms each. *)
let check_flush_cost (vm : Jt_vm.Vm.t) ~spans =
  let before = spans () in
  let jit_lo, jit_hi = Jt_vm.Vm.jit_region in
  let region a =
    if a >= jit_lo && a < jit_hi then "jit"
    else
      match Jt_loader.Loader.module_at vm.loader a with
      | Some l -> l.lmod.Jt_obj.Objfile.name
      | None -> "?"
  in
  (* the first span of at least 2 bytes in a region: a flush of its last
     byte must find it although it starts before the range *)
  let first r =
    match List.filter (fun (a, l) -> region a = r && l >= 2) before with
    | s :: _ -> s
    | [] -> Alcotest.failf "nothing cached in %s" r
  in
  let main_a, main_l = first "jitprog" and libc_a, libc_l = first "libc.so" in
  let jit_a, _ = first "jit" in
  List.iter
    (fun (start, len) ->
      let expected =
        List.filter (fun s -> not (overlaps ~start ~len s)) (spans ())
      in
      Jt_vm.Vm.flush_range vm start len;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "flush [%#x, +%d)" start len)
        expected (spans ()))
    [
      (libc_a + libc_l - 1, 1);
      (main_a + main_l - 1, 2);
      (jit_a land lnot 0xFFF, 4096);
      (0xFFFF_FFF0, 0x20);
    ];
  Alcotest.(check bool) "the partial flushes left code cached" true
    (spans () <> []);
  let t0 = Sys.time () in
  for _ = 1 to 1000 do
    Jt_vm.Vm.flush_range vm 0 (1 lsl 32)
  done;
  let dt = Sys.time () -. t0 in
  Alcotest.(check (list (pair int int))) "whole-range flush empties" []
    (spans ());
  if dt >= 0.5 then
    Alcotest.failf "1,000 whole-range flushes took %.2f s" dt
