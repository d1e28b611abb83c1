open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl
open Sheet

type t = {
  w_sheet : Sheet.t;
  w_main : Jt_obj.Objfile.t;
  w_registry : Jt_obj.Objfile.t list;
}

let chase_elems = 256

(* Small deterministic per-benchmark variation so the 27 programs are not
   clones of each other. *)
let seed_of name =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0xFFFF) name;
  !h

let deps_of (s : Sheet.t) =
  let libm = if s.s_alu_calls > 0 then [ "libm.so" ] else [] in
  match s.s_lang with
  | C -> "libc.so" :: libm
  | Cxx -> [ "libc.so" ] @ libm @ [ "libcxx.so" ]
  | Fortran -> [ "libc.so" ] @ libm @ [ "libgfortran.so" ]
  | Mixed_cf -> [ "libc.so" ] @ libm @ [ "libcxx.so"; "libgfortran.so" ]

let features_of = function
  | C -> []
  | Cxx -> [ Jt_obj.Objfile.Cxx_exceptions ]
  | Fortran -> [ Jt_obj.Objfile.Fortran_runtime ]
  | Mixed_cf -> [ Jt_obj.Objfile.Cxx_exceptions; Jt_obj.Objfile.Fortran_runtime ]

(* ---- building blocks ---- *)

(* The four dispatch-table operations, varied by seed. *)
let op_funcs seed =
  [
    func "op0" [ addi Reg.r0 (13 + (seed land 7)); ret ];
    func "op1" [ binopi Insn.Xor Reg.r0 (0x55 + (seed land 15)); ret ];
    func "op2" [ muli Reg.r0 5; addi Reg.r0 1; ret ];
    func "op3" [ subi Reg.r0 (7 + (seed land 3)); ret ];
  ]

let cmp_fn =
  func "cmp_fn" [ mov Reg.r3 Reg.r0; sub Reg.r3 Reg.r1; mov Reg.r0 Reg.r3; ret ]

(* SCEV-friendly streaming kernel: a[i] = a[i]*3 + i. *)
(* The stack store inside the loop models the register spills -O2 code
   has on a register-poor 32-bit target; the hybrid's frame-granularity
   stack policy skips it while dynamic-only sanitizers pay for it. *)
let stream_kernel mul =
  func "stream_kernel"
    [
      subi Reg.sp 8;
      movi Reg.r2 0;
      label "head";
      cmp Reg.r2 Reg.r1;
      jcc Insn.Ge "done";
      ld Reg.r3 (mem_bi ~scale:4 Reg.r0 Reg.r2);
      muli Reg.r3 mul;
      add Reg.r3 Reg.r2;
      st (mem_b ~disp:0 Reg.sp) Reg.r2;
      st (mem_bi ~scale:4 Reg.r0 Reg.r2) Reg.r3;
      addi Reg.r2 1;
      jmp "head";
      label "done";
      addi Reg.sp 8;
      ret;
    ]

(* Pointer-chasing kernel whose loop test (test/jne) defeats SCEV. *)
(* The optional per-step helper call models the short-function
   call/return traffic of branchy, call-dense SPEC codes (interpreters,
   compilers, dispatchers): it is what gives backward-edge CFI
   (shadow-stack pushes and pops) something to cost.  Streaming and
   plain pointer-chasing codes keep call-free inner loops. *)
let chase_leaf = func "chase_leaf" [ binopi Insn.Xor Reg.r1 0x1D; ret ]

let chase_kernel ~leafy =
  func "chase_kernel"
    ([
       push Reg.r6;
       subi Reg.sp 8;
       movi Reg.r3 0;
       movi Reg.r4 0;
       label "head";
       I (Jt_asm.Sinsn.Stest (Reg.r2, Jt_asm.Sinsn.Sreg Reg.r2));
       jcc Insn.Eq "done";
       ld Reg.r3 (mem_bi ~scale:4 Reg.r0 Reg.r3);
       st (mem_b ~disp:0 Reg.sp) Reg.r4;
     ]
    @ (if leafy then
         [
           mov Reg.r6 Reg.r0;
           mov Reg.r1 Reg.r3;
           call "chase_leaf";
           mov Reg.r0 Reg.r6;
           add Reg.r4 Reg.r1;
         ]
       else [ add Reg.r4 Reg.r3 ])
    @ [
        subi Reg.r2 1;
        jmp "head";
        label "done";
        mov Reg.r0 Reg.r4;
        addi Reg.sp 8;
        pop Reg.r6;
        ret;
      ])

(* switch(sel) through an inline jump table (bounds-checked, so static
   jump-table recovery succeeds). *)
let switch_kernel ~pic =
  func "switch_kernel"
    [
      cmpi Reg.r1 3;
      jcc Insn.Ugt "out";
      addr_of_label ~pic Reg.r2 "jt";
      I (Jt_asm.Sinsn.Sjmp_ind_m (mem_bi ~scale:4 Reg.r2 Reg.r1));
      label "jt";
      Inline_table [ "k0"; "k1"; "k2"; "k3" ];
      label "k0";
      addi Reg.r0 1;
      jmp "out";
      label "k1";
      binopi Insn.Xor Reg.r0 0x2A;
      jmp "out";
      label "k2";
      muli Reg.r0 3;
      jmp "out";
      label "k3";
      subi Reg.r0 5;
      label "out";
      ret;
    ]

(* Computed goto through a data-section label table: these blocks are the
   ones static control-flow recovery cannot find (Figure 14). *)
let goto_kernel ~pic n =
  let cases =
    List.concat
      (List.init n (fun i ->
           [ label (Printf.sprintf "g%d" i); addi Reg.r0 (11 + (17 * i)); jmp "gout" ]))
  in
  func "goto_kernel"
    ([
       addr_of_data ~pic Reg.r2 "goto_tbl";
       ld Reg.r1 (mem_bi ~scale:4 Reg.r2 Reg.r0);
       jmp_reg Reg.r1;
     ]
    @ cases
    @ [ label "gout"; ret ])

(* 2D five-point stencil over a rows x 32 grid: the inner loop is counted
   but the address is a derived induction value, so per-access checks
   remain — the fp-streaming benchmarks' profile. *)
let stencil_kernel =
  func "stencil_kernel"
    [
      push Reg.r6;
      subi Reg.r1 1;
      movi Reg.r2 1;
      label "rows";
      cmp Reg.r2 Reg.r1;
      jcc Insn.Ge "rdone";
      movi Reg.r3 1;
      label "cols";
      cmpi Reg.r3 31;
      jcc Insn.Ge "cdone";
      mov Reg.r4 Reg.r2;
      shli Reg.r4 5;
      add Reg.r4 Reg.r3;
      ld Reg.r5 (mem_bi ~disp:(-4) ~scale:4 Reg.r0 Reg.r4);
      ld Reg.r6 (mem_bi ~disp:4 ~scale:4 Reg.r0 Reg.r4);
      add Reg.r5 Reg.r6;
      ld Reg.r6 (mem_bi ~disp:(-128) ~scale:4 Reg.r0 Reg.r4);
      add Reg.r5 Reg.r6;
      ld Reg.r6 (mem_bi ~disp:128 ~scale:4 Reg.r0 Reg.r4);
      add Reg.r5 Reg.r6;
      shri Reg.r5 2;
      st (mem_bi ~scale:4 Reg.r0 Reg.r4) Reg.r5;
      addi Reg.r3 1;
      jmp "cols";
      label "cdone";
      addi Reg.r2 1;
      jmp "rows";
      label "rdone";
      pop Reg.r6;
      ret;
    ]

(* Histogram: data-dependent addressing that no static analysis can
   prove in bounds (the masking is the program's own sanitization). *)
let hist_kernel =
  func "hist_kernel"
    [
      movi Reg.r3 0;
      label "head";
      cmp Reg.r3 Reg.r1;
      jcc Insn.Ge "done";
      ld Reg.r4 (mem_bi ~scale:4 Reg.r0 Reg.r3);
      andi Reg.r4 63;
      ld Reg.r5 (mem_bi ~scale:4 Reg.r2 Reg.r4);
      addi Reg.r5 1;
      st (mem_bi ~scale:4 Reg.r2 Reg.r4) Reg.r5;
      addi Reg.r3 1;
      jmp "head";
      label "done";
      ret;
    ]

(* Byte-granularity string processing: W1 accesses and a branch per
   element, the interpreter/codec profile. *)
let strproc_kernel =
  func "strproc_kernel"
    [
      movi Reg.r2 0;
      label "head";
      cmp Reg.r2 Reg.r1;
      jcc Insn.Ge "done";
      ldb Reg.r3 (mem_bi Reg.r0 Reg.r2);
      testi Reg.r3 1;
      jcc Insn.Eq "even";
      binopi Insn.Xor Reg.r3 0x20;
      stb (mem_bi Reg.r0 Reg.r2) Reg.r3;
      jmp "next";
      label "even";
      addi Reg.r3 1;
      stb (mem_bi Reg.r0 Reg.r2) Reg.r3;
      label "next";
      addi Reg.r2 1;
      jmp "head";
      label "done";
      ret;
    ]

(* Canary-framed recursion (game-tree search profile). *)
let recurse_fn =
  func "recurse"
    (Abi.frame_enter ~canary:true ~locals:16 ()
    @ [
        cmpi Reg.r0 1;
        jcc Insn.Le "base";
        st (Abi.local 16 0) Reg.r0;
        subi Reg.r0 1;
        call "recurse";
        ld Reg.r1 (Abi.local 16 0);
        add Reg.r0 Reg.r1;
        jmp "out";
        label "base";
        movi Reg.r0 1;
        label "out";
      ]
    @ Abi.frame_leave ~canary:true ~locals:16 ())

(* Canary-framed call chain work_<depth> -> ... -> work_1. *)
let work_chain depth seed =
  let mk d =
    let body =
      if d = 1 then
        [
          sti (Abi.local 16 0) (seed land 63);
          ld Reg.r1 (Abi.local 16 0);
          add Reg.r0 Reg.r1;
          muli Reg.r0 2;
          addi Reg.r0 3;
        ]
      else
        [
          st (Abi.local 16 0) Reg.r0;
          addi Reg.r0 1;
          call (Printf.sprintf "work_%d" (d - 1));
          ld Reg.r1 (Abi.local 16 0);
          add Reg.r0 Reg.r1;
        ]
    in
    func
      (Printf.sprintf "work_%d" d)
      (Abi.frame_enter ~canary:true ~locals:16 ()
      @ body
      @ Abi.frame_leave ~canary:true ~locals:16 ())
  in
  List.init depth (fun i -> mk (i + 1))

(* Once-run phase functions: code volume with little execution time. *)
let phase_funcs n seed =
  List.init n (fun i ->
      let k = (seed + (i * 37)) land 0xFF in
      func
        (Printf.sprintf "phase_%d" i)
        [
          addi Reg.r0 k;
          cmpi Reg.r0 128;
          jcc Insn.Lt "small";
          binopi Insn.Xor Reg.r0 (k lor 1);
          shri Reg.r0 1;
          jmp "out";
          label "small";
          muli Reg.r0 3;
          addi Reg.r0 (i land 15);
          label "out";
          ret;
        ])

(* A cold function carrying a literal pool (data in code). *)
let litpool_fn bytes =
  let blob = String.init bytes (fun i -> Char.chr (0xF1 + (i mod 13))) in
  func "littab" [ movi Reg.r0 0; ret; label "pool"; Bytes blob ]

(* ---- the dlopen'd solver plugin (cactusADM-style) ---- *)

let solver_plugin name stages =
  let stage i =
    let body =
      match i mod 3 with
      | 0 ->
        (* streaming pass *)
        [
          movi Reg.r2 0;
          label "h";
          cmp Reg.r2 Reg.r1;
          jcc Insn.Ge "d";
          ld Reg.r3 (mem_bi ~scale:4 Reg.r0 Reg.r2);
          addi Reg.r3 (i + 1);
          st (mem_bi ~scale:4 Reg.r0 Reg.r2) Reg.r3;
          addi Reg.r2 1;
          jmp "h";
          label "d";
          ret;
        ]
      | 1 ->
        (* reduction *)
        [
          movi Reg.r2 0;
          movi Reg.r3 0;
          label "h";
          cmp Reg.r2 Reg.r1;
          jcc Insn.Ge "d";
          ld Reg.r4 (mem_bi ~scale:4 Reg.r0 Reg.r2);
          add Reg.r3 Reg.r4;
          addi Reg.r2 2;
          jmp "h";
          label "d";
          st (mem_b ~disp:0 Reg.r0) Reg.r3;
          ret;
        ]
      | _ ->
        (* branchy scalar pass *)
        [
          ld Reg.r2 (mem_b ~disp:0 Reg.r0);
          cmpi Reg.r2 0;
          jcc Insn.Ge "pos";
          I (Jt_asm.Sinsn.Sneg Reg.r2);
          label "pos";
          binopi Insn.Xor Reg.r2 (i * 3);
          andi Reg.r2 0xFFFF;
          st (mem_b ~disp:4 Reg.r0) Reg.r2;
          ret;
        ]
    in
    func (Printf.sprintf "stage_%d" i) body
  in
  let solve =
    func ~exported:true "solve"
      ([ push Reg.r6; push Reg.r7; mov Reg.r6 Reg.r0; mov Reg.r7 Reg.r1 ]
      @ List.concat
          (List.init stages (fun i ->
               [
                 mov Reg.r0 Reg.r6;
                 mov Reg.r1 Reg.r7;
                 call (Printf.sprintf "stage_%d" i);
               ]))
      @ [ ld Reg.r0 (mem_b ~disp:0 Reg.r6); pop Reg.r7; pop Reg.r6; ret ])
  in
  build ~name ~kind:Jt_obj.Objfile.Shared ~deps:[ "libc.so" ]
    (solve :: List.init stages stage)

(* ---- main program ---- *)

let rep n item = List.concat (List.init n (fun _ -> item))

let build ?(kind = Jt_obj.Objfile.Exec_nonpic) (s : Sheet.t) =
  let pic = kind <> Jt_obj.Objfile.Exec_nonpic in
  let seed = seed_of s.s_name in
  (* When the computation lives in a dlopen'd solver (cactusADM), the
     main executable is just a thin driver: the language-runtime work
     happens inside the plugin. *)
  let thin_driver = s.s_dlopen_solver > 0 in
  let has_cxx = (s.s_lang = Cxx || s.s_lang = Mixed_cf) && not thin_driver in
  let has_fortran = (s.s_lang = Fortran || s.s_lang = Mixed_cf) && not thin_driver in
  let needs_chase = s.s_chase_steps > 0 in
  let needs_b = s.s_memlib_calls > 0 || s.s_qsort in
  let solver_name = s.s_name ^ ".solver.so" in
  let datas =
    [ data "dispatch_tbl" [ Dfuncptr "op0"; Dfuncptr "op1"; Dfuncptr "op2"; Dfuncptr "op3" ] ]
    @ (if s.s_hist > 0 then [ data "histbuf" [ Dspace 256 ] ] else [])
    @ (if s.s_computed_goto > 0 then
         [
           data "goto_tbl"
             (List.init s.s_computed_goto (fun i ->
                  Dlabelptr ("goto_kernel", Printf.sprintf "g%d" i)));
         ]
       else [])
    @
    if s.s_dlopen_solver > 0 then
      [
        data "solver_mod" [ Dbytes (solver_name ^ "\x00") ];
        data "solver_sym" [ Dbytes "solve\x00" ];
      ]
    else []
  in
  (* --- main body --- *)
  let setup =
    [
      movi Reg.r0 (s.s_elems * 4);
      call_import "malloc";
      mov Reg.r7 Reg.r0;
      movi Reg.r6 (seed land 0xFF);
    ]
    @ (if needs_chase then
         [ movi Reg.r0 (chase_elems * 4); call_import "malloc"; mov Reg.r8 Reg.r0 ]
       else [])
    @ (if needs_b then
         [ movi Reg.r0 (s.s_elems * 4); call_import "malloc"; mov Reg.r12 Reg.r0 ]
       else [])
    @ (if has_cxx then
         [
           movi Reg.r0 8;
           call_import "malloc";
           mov Reg.r11 Reg.r0;
           ld Reg.r1 (mem_got "vt_widget");
           st (mem_b ~disp:0 Reg.r11) Reg.r1;
           sti (mem_b ~disp:4 Reg.r11) (5 + (seed land 7));
         ]
       else [])
    @ (if s.s_dlopen_solver > 0 then
         [
           addr_of_data ~pic Reg.r0 "solver_mod";
           syscall Sysno.dlopen;
           addr_of_data ~pic Reg.r1 "solver_sym";
           syscall Sysno.dlsym;
           mov Reg.r10 Reg.r0;
         ]
       else [])
    (* init a[i] = i*3+1 *)
    @ [
        movi Reg.r1 0;
        label "ia";
        cmpi Reg.r1 s.s_elems;
        jcc Insn.Ge "ia_done";
        mov Reg.r2 Reg.r1;
        muli Reg.r2 3;
        addi Reg.r2 1;
        st (mem_bi ~scale:4 Reg.r7 Reg.r1) Reg.r2;
        addi Reg.r1 1;
        jmp "ia";
        label "ia_done";
      ]
    (* init chase permutation c[i] = (i*7+3) mod 256 *)
    @ (if needs_chase then
         [
           movi Reg.r1 0;
           label "ic";
           cmpi Reg.r1 chase_elems;
           jcc Insn.Ge "ic_done";
           mov Reg.r2 Reg.r1;
           muli Reg.r2 7;
           addi Reg.r2 3;
           andi Reg.r2 (chase_elems - 1);
           st (mem_bi ~scale:4 Reg.r8 Reg.r1) Reg.r2;
           addi Reg.r1 1;
           jmp "ic";
           label "ic_done";
         ]
       else [])
    (* run every phase function once *)
    @ List.concat
        (List.init s.s_code_bloat (fun i ->
             [ mov Reg.r0 Reg.r6; call (Printf.sprintf "phase_%d" i); add Reg.r6 Reg.r0 ]))
    @ if s.s_literal_pool > 0 then [ call "littab" ] else []
  in
  let per_unit =
    rep s.s_stream_loops
      [ mov Reg.r0 Reg.r7; movi Reg.r1 s.s_elems; call "stream_kernel" ]
    @ (if s.s_chase_steps > 0 then
         [
           mov Reg.r0 Reg.r8;
           movi Reg.r1 chase_elems;
           movi Reg.r2 s.s_chase_steps;
           call "chase_kernel";
           add Reg.r6 Reg.r0;
         ]
       else [])
    @ List.concat
        (List.init s.s_alu_calls (fun i ->
             [
               mov Reg.r0 Reg.r9;
               addi Reg.r0 (i + (seed land 31));
               call_import (if i mod 3 = 2 then "isqrt" else "poly");
               add Reg.r6 Reg.r0;
             ]))
    @ List.concat
        (List.init s.s_ind_calls (fun i ->
             [
               mov Reg.r3 Reg.r9;
               addi Reg.r3 i;
               andi Reg.r3 3;
               addr_of_data ~pic Reg.r2 "dispatch_tbl";
               ld Reg.r4 (mem_bi ~scale:4 Reg.r2 Reg.r3);
               mov Reg.r0 Reg.r6;
               call_reg Reg.r4;
               add Reg.r6 Reg.r0;
             ]))
    @ List.concat
        (List.init s.s_switches (fun i ->
             [
               mov Reg.r0 Reg.r6;
               mov Reg.r1 Reg.r9;
               addi Reg.r1 i;
               andi Reg.r1 3;
               call "switch_kernel";
               add Reg.r6 Reg.r0;
             ]))
    @ (if s.s_call_depth > 0 then
         rep 2
           [
             mov Reg.r0 Reg.r9;
             call (Printf.sprintf "work_%d" s.s_call_depth);
             add Reg.r6 Reg.r0;
           ]
       else [])
    @ rep s.s_stencil
        [ mov Reg.r0 Reg.r7; movi Reg.r1 (s.s_elems / 32); call "stencil_kernel" ]
    @ rep s.s_hist
        [
          mov Reg.r0 Reg.r7;
          movi Reg.r1 (min s.s_elems 256);
          addr_of_data ~pic Reg.r2 "histbuf";
          call "hist_kernel";
          addr_of_data ~pic Reg.r2 "histbuf";
          ld Reg.r3 (mem_b ~disp:0 Reg.r2);
          add Reg.r6 Reg.r3;
        ]
    @ rep s.s_strproc
        [ mov Reg.r0 Reg.r7; movi Reg.r1 256; call "strproc_kernel" ]
    @ (if s.s_recurse > 0 then
         [ movi Reg.r0 s.s_recurse; call "recurse"; add Reg.r6 Reg.r0 ]
       else [])
    @ rep s.s_memlib_calls
        [
          mov Reg.r0 Reg.r12;
          mov Reg.r1 Reg.r7;
          movi Reg.r2 (min s.s_elems 128);
          call_import "copy_words";
        ]
    @ (if s.s_qsort then
         [
           mov Reg.r0 Reg.r12;
           movi Reg.r1 8;
           addr_of_func ~pic Reg.r2 "cmp_fn";
           call_import "qsort";
           ld Reg.r3 (mem_b ~disp:0 Reg.r12);
           add Reg.r6 Reg.r3;
         ]
       else [])
    @ rep s.s_mallocs
        [
          movi Reg.r0 48;
          call_import "malloc";
          mov Reg.r5 Reg.r0;
          sti (mem_b ~disp:0 Reg.r5) 7;
          mov Reg.r0 Reg.r5;
          call_import "free";
        ]
    @ (if has_cxx then
         [
           mov Reg.r0 Reg.r11;
           mov Reg.r1 Reg.r9;
           andi Reg.r1 1;
           call_import "vcall";
           add Reg.r6 Reg.r0;
         ]
       else [])
    @ (if has_fortran then
         [
           mov Reg.r0 Reg.r7;
           movi Reg.r1 s.s_elems;
           movi Reg.r2 3;
           call_import "arr_scale";
           mov Reg.r0 Reg.r7;
           movi Reg.r1 s.s_elems;
           call_import "arr_sum";
           add Reg.r6 Reg.r0;
         ]
       else [])
    @ (if s.s_computed_goto > 0 then
         [
           mov Reg.r0 Reg.r9;
           andi Reg.r0 (s.s_computed_goto - 1);
           call "goto_kernel";
           add Reg.r6 Reg.r0;
         ]
       else [])
    @
    if s.s_dlopen_solver > 0 then
      [
        mov Reg.r0 Reg.r7;
        movi Reg.r1 (min s.s_elems 48);
        call_reg Reg.r10;
        add Reg.r6 Reg.r0;
      ]
    else []
  in
  let main =
    func "main"
      (setup
      @ [ movi Reg.r9 0; label "unit_head"; cmpi Reg.r9 s.s_units;
          jcc Insn.Ge "unit_done" ]
      @ per_unit
      @ [
          addi Reg.r9 1;
          jmp "unit_head";
          label "unit_done";
          mov Reg.r0 Reg.r6;
          call_import "print_int";
          movi Reg.r0 0;
          syscall Sysno.exit_;
        ])
  in
  let funcs =
    [ main ]
    @ op_funcs seed
    @ [ cmp_fn; stream_kernel (3 + (seed land 1)); chase_leaf;
        chase_kernel ~leafy:(s.s_ind_calls >= 6 || s.s_switches >= 6);
        switch_kernel ~pic ]
    @ (if s.s_computed_goto > 0 then [ goto_kernel ~pic s.s_computed_goto ] else [])
    @ (if s.s_stencil > 0 then [ stencil_kernel ] else [])
    @ (if s.s_hist > 0 then [ hist_kernel ] else [])
    @ (if s.s_strproc > 0 then [ strproc_kernel ] else [])
    @ (if s.s_recurse > 0 then [ recurse_fn ] else [])
    @ work_chain s.s_call_depth seed
    @ phase_funcs s.s_code_bloat seed
    @ if s.s_literal_pool > 0 then [ litpool_fn s.s_literal_pool ] else []
  in
  let w_main =
    Jt_asm.Builder.build ~name:s.s_name ~kind ~deps:(deps_of s)
      ~features:(features_of s.s_lang) ~entry:"main" ~datas funcs
  in
  let plugins =
    if s.s_dlopen_solver > 0 then [ solver_plugin solver_name s.s_dlopen_solver ]
    else []
  in
  { w_sheet = s; w_main; w_registry = (w_main :: plugins) @ Stdlibs.all }

let run_native (w : t) =
  Jt_vm.Vm.run_native ~registry:w.w_registry ~main:w.w_sheet.s_name ()
