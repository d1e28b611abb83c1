open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

(* Argument convention: r0..r2 are arguments, r0 the result.  Loop
   counters in kernels use the canonical rotated-loop shape so that the
   static analyzer's SCEV pass can reason about them where the paper's
   would. *)

let libc =
  build ~name:"libc.so" ~kind:Jt_obj.Objfile.Shared
    [
      func ~exported:true "__stack_chk_fail"
        [ movi Reg.r0 134; syscall Sysno.exit_ ];
      func ~exported:true "malloc" [ syscall Sysno.malloc; ret ];
      func ~exported:true "calloc" [ syscall Sysno.calloc; ret ];
      func ~exported:true "realloc" [ syscall Sysno.realloc; ret ];
      func ~exported:true "free" [ syscall Sysno.free; ret ];
      func ~exported:true "print_int" [ syscall Sysno.write_int; ret ];
      func ~exported:true "print_ch" [ syscall Sysno.write_ch; ret ];
      func ~exported:true "read_int" [ syscall Sysno.read_int; ret ];
      (* memcpy(dst, src, n): byte loop *)
      func ~exported:true "memcpy"
        [
          movi Reg.r3 0;
          label "head";
          cmp Reg.r3 Reg.r2;
          jcc Insn.Ge "done";
          ldb Reg.r4 (mem_bi Reg.r1 Reg.r3);
          stb (mem_bi Reg.r0 Reg.r3) Reg.r4;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          ret;
        ];
      (* memset(dst, val, n) *)
      func ~exported:true "memset"
        [
          movi Reg.r3 0;
          label "head";
          cmp Reg.r3 Reg.r2;
          jcc Insn.Ge "done";
          stb (mem_bi Reg.r0 Reg.r3) Reg.r1;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          ret;
        ];
      (* copy_words(dst, src, n) *)
      func ~exported:true "copy_words"
        [
          movi Reg.r3 0;
          label "head";
          cmp Reg.r3 Reg.r2;
          jcc Insn.Ge "done";
          ld Reg.r4 (mem_bi ~scale:4 Reg.r1 Reg.r3);
          st (mem_bi ~scale:4 Reg.r0 Reg.r3) Reg.r4;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          ret;
        ];
      (* apply(f, x): the callback trampoline *)
      func ~exported:true "apply"
        [ mov Reg.r4 Reg.r0; mov Reg.r0 Reg.r1; I (Jt_asm.Sinsn.Scall_ind_r Reg.r4); ret ];
      (* qsort(base, n, cmp): insertion sort calling cmp(a, b) through a
         function pointer — the cross-module callback pattern behind
         Lockdown's false positives. *)
      func ~exported:true "qsort"
        [
          push Reg.r6;
          push Reg.r7;
          push Reg.r8;
          push Reg.r9;
          push Reg.r10;
          push Reg.r11;
          push Reg.r12;
          mov Reg.r6 Reg.r0 (* base *);
          mov Reg.r7 Reg.r1 (* n *);
          mov Reg.r8 Reg.r2 (* cmp *);
          movi Reg.r9 1 (* i *);
          label "outer";
          cmp Reg.r9 Reg.r7;
          jcc Insn.Ge "done";
          ld Reg.r10 (mem_bi ~scale:4 Reg.r6 Reg.r9) (* key *);
          mov Reg.r11 Reg.r9 (* j *);
          label "inner";
          cmpi Reg.r11 0;
          jcc Insn.Le "insert";
          mov Reg.r12 Reg.r11;
          subi Reg.r12 1;
          ld Reg.r0 (mem_bi ~scale:4 Reg.r6 Reg.r12);
          mov Reg.r1 Reg.r10;
          call_reg Reg.r8 (* cmp(a[j-1], key) > 0 ? *);
          cmpi Reg.r0 0;
          jcc Insn.Le "insert";
          mov Reg.r12 Reg.r11;
          subi Reg.r12 1;
          ld Reg.r0 (mem_bi ~scale:4 Reg.r6 Reg.r12);
          st (mem_bi ~scale:4 Reg.r6 Reg.r11) Reg.r0;
          subi Reg.r11 1;
          jmp "inner";
          label "insert";
          st (mem_bi ~scale:4 Reg.r6 Reg.r11) Reg.r10;
          addi Reg.r9 1;
          jmp "outer";
          label "done";
          pop Reg.r12;
          pop Reg.r11;
          pop Reg.r10;
          pop Reg.r9;
          pop Reg.r8;
          pop Reg.r7;
          pop Reg.r6;
          ret;
        ];
    ]

let libm =
  build ~name:"libm.so" ~kind:Jt_obj.Objfile.Shared ~deps:[ "libc.so" ]
    [
      (* poly(x): fixed cubic, pure ALU *)
      func ~exported:true "poly"
        [
          mov Reg.r1 Reg.r0;
          mov Reg.r2 Reg.r0;
          muli Reg.r2 3;
          addi Reg.r2 7;
          binop Insn.Mul Reg.r2 Reg.r1;
          addi Reg.r2 11;
          mov Reg.r0 Reg.r2;
          ret;
        ];
      (* isqrt(x): Newton-ish iteration, branchy ALU *)
      func ~exported:true "isqrt"
        [
          mov Reg.r1 Reg.r0;
          movi Reg.r2 1;
          label "head";
          mov Reg.r3 Reg.r2;
          binop Insn.Mul Reg.r3 Reg.r2;
          cmp Reg.r3 Reg.r1;
          jcc Insn.Gt "done";
          addi Reg.r2 1;
          cmpi Reg.r2 70000;
          jcc Insn.Gt "done";
          jmp "head";
          label "done";
          mov Reg.r0 Reg.r2;
          subi Reg.r0 1;
          ret;
        ];
      (* dot(a, b, n) *)
      func ~exported:true "dot"
        [
          push Reg.r6;
          movi Reg.r3 0;
          movi Reg.r4 0;
          label "head";
          cmp Reg.r3 Reg.r2;
          jcc Insn.Ge "done";
          ld Reg.r5 (mem_bi ~scale:4 Reg.r0 Reg.r3);
          ld Reg.r6 (mem_bi ~scale:4 Reg.r1 Reg.r3);
          binop Insn.Mul Reg.r5 Reg.r6;
          add Reg.r4 Reg.r5;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          mov Reg.r0 Reg.r4;
          pop Reg.r6;
          ret;
        ];
    ]

(* A vtable-flavoured object layer: objects are [vtable_ptr; field] pairs
   in memory, dispatch loads the table then the slot, then calls it. *)
let libcxx =
  build ~name:"libcxx.so" ~kind:Jt_obj.Objfile.Shared ~deps:[ "libc.so" ]
    ~features:[ Jt_obj.Objfile.Cxx_exceptions ]
    ~datas:
      [
        data ~exported:true "vt_widget" [ Dfuncptr "widget_get"; Dfuncptr "widget_bump" ];
        data ~exported:true "vt_gadget" [ Dfuncptr "gadget_get"; Dfuncptr "gadget_bump" ];
      ]
    [
      func ~exported:true "widget_get" [ ld Reg.r0 (mem_b ~disp:4 Reg.r0); ret ];
      func ~exported:true "widget_bump"
        [
          ld Reg.r1 (mem_b ~disp:4 Reg.r0);
          addi Reg.r1 1;
          st (mem_b ~disp:4 Reg.r0) Reg.r1;
          mov Reg.r0 Reg.r1;
          ret;
        ];
      func ~exported:true "gadget_get"
        [ ld Reg.r0 (mem_b ~disp:4 Reg.r0); muli Reg.r0 2; ret ];
      func ~exported:true "gadget_bump"
        [
          ld Reg.r1 (mem_b ~disp:4 Reg.r0);
          addi Reg.r1 3;
          st (mem_b ~disp:4 Reg.r0) Reg.r1;
          mov Reg.r0 Reg.r1;
          ret;
        ];
      (* vcall(obj, slot): obj -> vtable -> slot -> call *)
      func ~exported:true "vcall"
        [
          ld Reg.r4 (mem_b ~disp:0 Reg.r0) (* vtable *);
          I
            (Jt_asm.Sinsn.Sload
               ( Insn.W4,
                 Reg.r4,
                 { Jt_asm.Sinsn.sbase = Some (Jt_asm.Sinsn.SBreg Reg.r4);
                   sindex = Some Reg.r1;
                   sscale = 4;
                   sdisp = Jt_asm.Sinsn.Dconst 0 } ));
          call_reg Reg.r4;
          ret;
        ];
    ]

(* Fortran-ish array runtime.  Carries both the Fortran feature (defeats
   RetroWrite reassembly) and the broken-calling-convention feature: the
   static analyzer falls back to conservative liveness for this module
   (section 4.1.2). *)
let libgfortran =
  build ~name:"libgfortran.so" ~kind:Jt_obj.Objfile.Shared ~deps:[ "libc.so" ]
    ~features:
      [ Jt_obj.Objfile.Fortran_runtime; Jt_obj.Objfile.Handwritten_asm;
        Jt_obj.Objfile.Breaks_calling_convention ]
    [
      (* arr_sum(a, n) *)
      func ~exported:true "arr_sum"
        [
          movi Reg.r3 0;
          movi Reg.r4 0;
          label "head";
          cmp Reg.r3 Reg.r1;
          jcc Insn.Ge "done";
          ld Reg.r5 (mem_bi ~scale:4 Reg.r0 Reg.r3);
          add Reg.r4 Reg.r5;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          mov Reg.r0 Reg.r4;
          ret;
        ];
      (* arr_scale(a, n, k): a[i] = a[i]*k + i *)
      func ~exported:true "arr_scale"
        [
          movi Reg.r3 0;
          label "head";
          cmp Reg.r3 Reg.r1;
          jcc Insn.Ge "done";
          ld Reg.r4 (mem_bi ~scale:4 Reg.r0 Reg.r3);
          binop Insn.Mul Reg.r4 Reg.r2;
          add Reg.r4 Reg.r3;
          st (mem_bi ~scale:4 Reg.r0 Reg.r3) Reg.r4;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          ret;
        ];
      (* tridiag(a, n): three-point stencil, reads neighbours *)
      func ~exported:true "tridiag"
        [
          push Reg.r6;
          push Reg.r7;
          push Reg.r8;
          movi Reg.r3 1;
          mov Reg.r4 Reg.r1;
          subi Reg.r4 1;
          label "head";
          cmp Reg.r3 Reg.r4;
          jcc Insn.Ge "done";
          mov Reg.r5 Reg.r3;
          subi Reg.r5 1;
          ld Reg.r6 (mem_bi ~scale:4 Reg.r0 Reg.r5);
          ld Reg.r7 (mem_bi ~scale:4 Reg.r0 Reg.r3);
          mov Reg.r5 Reg.r3;
          addi Reg.r5 1;
          ld Reg.r8 (mem_bi ~scale:4 Reg.r0 Reg.r5);
          add Reg.r6 Reg.r7;
          add Reg.r6 Reg.r8;
          shri Reg.r6 1;
          st (mem_bi ~scale:4 Reg.r0 Reg.r3) Reg.r6;
          addi Reg.r3 1;
          jmp "head";
          label "done";
          pop Reg.r8;
          pop Reg.r7;
          pop Reg.r6;
          ret;
        ];
    ]

let all = [ libc; libm; libcxx; libgfortran ]
