open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

type category =
  | Heap_heap
  | Heap_heap_slack
  | Stack_heap
  | Heap_stack_contig
  | Heap_stack_direct

type case = { c_id : int; c_cat : category; c_expected : int }

let cases =
  let mk cat n expected start =
    List.init n (fun i -> { c_id = start + i; c_cat = cat; c_expected = expected })
  in
  mk Heap_heap 312 1 0
  @ mk Heap_heap_slack 24 2 312
  @ mk Stack_heap 144 1 336
  @ mk Heap_stack_contig 48 1 480
  @ mk Heap_stack_direct 96 1 528

let exit0 = [ movi Reg.r0 0; syscall Sysno.exit_ ]

(* Every case: main calls a victim function; the victim performs the
   (possibly buggy) operation; the program always runs to completion
   (sanitizers are evaluated in recover mode). *)
let build_case (c : case) ~bad =
  let i = c.c_id in
  let name = Printf.sprintf "juliet_%03d_%s" i (if bad then "bad" else "good") in
  let victim =
    match c.c_cat with
    | Heap_heap ->
      (* dst and neighbour blocks; fill dst with n words; bad fills one
         extra, landing in the redzone. *)
      let sz = 8 * (2 + (i mod 6)) in
      let words = (sz / 4) + if bad then 1 else 0 in
      func "victim"
        [
          movi Reg.r0 sz;
          call_import "malloc";
          mov Reg.r6 Reg.r0;
          movi Reg.r0 sz;
          call_import "malloc";
          mov Reg.r7 Reg.r0;
          movi Reg.r1 0;
          label "fill";
          cmpi Reg.r1 words;
          jcc Insn.Ge "done";
          st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
          addi Reg.r1 1;
          jmp "fill";
          label "done";
          ld Reg.r0 (mem_b ~disp:0 Reg.r7);
          ret;
        ]
    | Heap_heap_slack ->
      (* size ≡ 4 (mod 8): the allocator rounds up, leaving 4 slack
         bytes.  Bad variant has two bugs: a write into the slack (only
         byte-granular redzones see it) and a write past the rounded
         end (everyone sees it). *)
      let sz = 12 + (8 * (i mod 4)) in
      func "victim"
        ([
           movi Reg.r0 sz;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           movi Reg.r2 65;
         ]
        @ (if bad then
             [
               (* bug 1: one byte into the alignment slack *)
               I
                 (Jt_asm.Sinsn.Sstore
                    (Insn.W1, mem_b ~disp:(sz + 1) Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
               (* bug 2: past the rounded-up end *)
               I
                 (Jt_asm.Sinsn.Sstore
                    (Insn.W1, mem_b ~disp:(sz + 9) Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
             ]
           else
             [
               I
                 (Jt_asm.Sinsn.Sstore
                    (Insn.W1, mem_b ~disp:(sz - 1) Reg.r6, Jt_asm.Sinsn.Sreg Reg.r2));
             ])
        @ [ ldb Reg.r0 (mem_b ~disp:0 Reg.r6); ret ])
    | Stack_heap ->
      (* copy a stack array into an undersized heap destination *)
      let dst_words = 2 + (i mod 4) in
      let src_words = dst_words + if bad then 2 else 0 in
      let locals = 48 in
      func "victim"
        (Abi.frame_enter ~canary:true ~locals ()
        @ [
            movi Reg.r0 (dst_words * 4);
            call_import "malloc";
            mov Reg.r2 Reg.r0;
            (* init stack source *)
            movi Reg.r1 0;
            label "init";
            cmpi Reg.r1 8;
            jcc Insn.Ge "initd";
            lea Reg.r3 (mem_b ~disp:(-locals) Reg.fp);
            st (mem_bi ~scale:4 Reg.r3 Reg.r1) Reg.r1;
            addi Reg.r1 1;
            jmp "init";
            label "initd";
            (* copy src_words into dst *)
            movi Reg.r1 0;
            label "copy";
            cmpi Reg.r1 src_words;
            jcc Insn.Ge "copyd";
            lea Reg.r3 (mem_b ~disp:(-locals) Reg.fp);
            ld Reg.r4 (mem_bi ~scale:4 Reg.r3 Reg.r1);
            st (mem_bi ~scale:4 Reg.r2 Reg.r1) Reg.r4;
            addi Reg.r1 1;
            jmp "copy";
            label "copyd";
            ld Reg.r0 (mem_b ~disp:0 Reg.r2);
          ]
        @ Abi.frame_leave ~canary:true ~locals ())
    | Heap_stack_contig ->
      (* a heap walk that intends to reach the stack: the first
         out-of-bounds write crosses the right redzone *)
      let sz = 8 * (2 + (i mod 5)) in
      let words = (sz / 4) + if bad then 2 else 0 in
      func "victim"
        [
          movi Reg.r0 sz;
          call_import "malloc";
          mov Reg.r6 Reg.r0;
          movi Reg.r1 0;
          label "walk";
          cmpi Reg.r1 words;
          jcc Insn.Ge "done";
          st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
          addi Reg.r1 1;
          jmp "walk";
          label "done";
          ld Reg.r0 (mem_b ~disp:0 Reg.r6);
          ret;
        ]
    | Heap_stack_direct ->
      (* a corrupted pointer landing in the caller's frame, missing
         both redzones and the canary: invisible to every scheme under
         test (the shared 96 false negatives) *)
      let off = 8 + (4 * (i mod 3)) in
      let locals = 24 in
      func "victim"
        (Abi.frame_enter ~canary:true ~locals ()
        @ [
            movi Reg.r0 32;
            call_import "malloc";
            mov Reg.r2 Reg.r0;
            sti (mem_b ~disp:0 Reg.r2) 5;
            movi Reg.r3 0x41414141;
          ]
        @ (if bad then
             [ lea Reg.r1 (mem_b ~disp:off Reg.fp); st (mem_b ~disp:0 Reg.r1) Reg.r3 ]
           else
             [
               lea Reg.r1 (mem_b ~disp:(-locals) Reg.fp);
               st (mem_b ~disp:0 Reg.r1) Reg.r3;
             ])
        @ [ ld Reg.r0 (mem_b ~disp:0 Reg.r2) ]
        @ Abi.frame_leave ~canary:true ~locals ())
  in
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [
      victim;
      func "main"
        ([ call "victim"; call_import "print_int" ] @ exit0);
    ]

let registry_for m = [ m; Stdlibs.libc ]

type tally = {
  t_true_pos : int;
  t_false_neg : int;
  t_true_neg : int;
  t_false_pos : int;
}

(* Distinct violation sites: several loop iterations tripping the same
   check count once, like one ASan report per instruction. *)
let distinct_sites (r : Jt_vm.Vm.result) =
  List.length
    (List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_pc) r.r_violations))

let run_scheme scheme m =
  match
    Jt_schemes.Scheme.run scheme ~registry:(registry_for m)
      ~main:m.Jt_obj.Objfile.name
  with
  | Ok o -> o.so_run.o_result
  | Error r -> failwith ("Juliet: refused: " ^ Jt_schemes.Scheme.refusal_to_string r)

let tally_cases scheme ~build ~expected selected =
  let tally = ref { t_true_pos = 0; t_false_neg = 0; t_true_neg = 0; t_false_pos = 0 } in
  List.iter
    (fun c ->
      let bad_r = run_scheme scheme (build c ~bad:true) in
      let good_r = run_scheme scheme (build c ~bad:false) in
      let t = !tally in
      let t =
        if distinct_sites bad_r >= expected c then
          { t with t_true_pos = t.t_true_pos + 1 }
        else { t with t_false_neg = t.t_false_neg + 1 }
      in
      let t =
        if distinct_sites good_r = 0 then { t with t_true_neg = t.t_true_neg + 1 }
        else { t with t_false_pos = t.t_false_pos + 1 }
      in
      tally := t)
    selected;
  !tally

let limited limit l =
  match limit with
  | None -> l
  | Some n -> List.filteri (fun k _ -> k < n) l

let evaluate ?limit scheme =
  tally_cases scheme ~build:build_case
    ~expected:(fun c -> c.c_expected)
    (limited limit cases)

(* ---- sibling families: CWE-124 / 415 / 416 / 121 ---- *)

type family = Cwe124 | Cwe415 | Cwe416 | Cwe121

let family_name = function
  | Cwe124 -> "CWE-124"
  | Cwe415 -> "CWE-415"
  | Cwe416 -> "CWE-416"
  | Cwe121 -> "CWE-121"

let families = [ Cwe124; Cwe415; Cwe416; Cwe121 ]

type fcase = {
  fc_id : int;
  fc_fam : family;
  fc_expected : int;
  fc_kind : string;
}

let family_cases fam =
  let mk n kind =
    List.init n (fun i -> { fc_id = i; fc_fam = fam; fc_expected = 1; fc_kind = kind })
  in
  match fam with
  | Cwe124 -> mk 48 "heap-buffer-overflow"
  | Cwe415 -> mk 48 "double-free"
  | Cwe416 -> mk 96 "heap-use-after-free"
  | Cwe121 -> mk 72 "stack-buffer-overflow"

let all_family_cases = List.concat_map family_cases families

let build_family_case (c : fcase) ~bad =
  let i = c.fc_id in
  let name =
    Printf.sprintf "juliet_%s_%03d_%s"
      (String.lowercase_ascii (family_name c.fc_fam))
      i
      (if bad then "bad" else "good")
  in
  let victim =
    match c.fc_fam with
    | Cwe124 ->
      (* buffer underwrite: a byte store at [base - 1] lands in the
         left redzone (both granularities poison it fully) *)
      let sz = 8 * (1 + (i mod 6)) in
      let disp = if bad then -1 else 0 in
      func "victim"
        [
          movi Reg.r0 sz;
          call_import "malloc";
          mov Reg.r6 Reg.r0;
          movi Reg.r2 65;
          stb (mem_b ~disp Reg.r6) Reg.r2;
          ldb Reg.r0 (mem_b ~disp:0 Reg.r6);
          ret;
        ]
    | Cwe415 ->
      (* double free, including zero-size blocks (i mod 7 = 0): the
         second free of the same base must report exactly once *)
      let sz = 8 * (i mod 7) in
      func "victim"
        ([
           movi Reg.r0 sz;
           call_import "malloc";
           mov Reg.r6 Reg.r0;
           mov Reg.r0 Reg.r6;
           call_import "free";
         ]
        @ (if bad then [ mov Reg.r0 Reg.r6; call_import "free" ] else [])
        @ [ movi Reg.r0 7; ret ])
    | Cwe416 ->
      (* use after free; freed payload stays [Heap_freed] in quarantine,
         so the dangling access is caught whichever variant *)
      let sz = 8 * (1 + (i mod 5)) in
      (match i mod 3 with
      | 0 ->
        (* load through the dangling pointer *)
        func "victim"
          ([ movi Reg.r0 sz; call_import "malloc"; mov Reg.r6 Reg.r0;
             sti (mem_b ~disp:0 Reg.r6) 7 ]
          @ (if bad then
               [ mov Reg.r0 Reg.r6; call_import "free";
                 ld Reg.r0 (mem_b ~disp:0 Reg.r6) ]
             else
               [ ld Reg.r7 (mem_b ~disp:0 Reg.r6); mov Reg.r0 Reg.r6;
                 call_import "free"; mov Reg.r0 Reg.r7 ])
          @ [ ret ])
      | 1 ->
        (* store through the dangling pointer *)
        func "victim"
          ([ movi Reg.r0 sz; call_import "malloc"; mov Reg.r6 Reg.r0 ]
          @ (if bad then
               [ mov Reg.r0 Reg.r6; call_import "free";
                 sti (mem_b ~disp:0 Reg.r6) 7 ]
             else
               [ sti (mem_b ~disp:0 Reg.r6) 7; mov Reg.r0 Reg.r6;
                 call_import "free" ])
          @ [ movi Reg.r0 7; ret ])
      | _ ->
        (* realloc moves the block; the stale pre-realloc pointer is
           dangling even though the data survived the copy *)
        func "victim"
          ([
             movi Reg.r0 sz;
             call_import "malloc";
             mov Reg.r6 Reg.r0;
             sti (mem_b ~disp:0 Reg.r6) 7;
             mov Reg.r0 Reg.r6;
             movi Reg.r1 (2 * sz);
             call_import "realloc";
             mov Reg.r7 Reg.r0;
           ]
          @ [ ld Reg.r0 (mem_b ~disp:0 (if bad then Reg.r6 else Reg.r7)) ]
          @ [ ret ]))
    | Cwe121 ->
      (* stack store into the canary slot through a computed pointer —
         [lea]-based so the frame policy cannot claim it.  The stored
         value is the canary's own, so natively the epilogue check
         passes and the program exits 0: only shadow-aware tools see
         anything at all. *)
      let locals = 24 + (8 * (i mod 3)) in
      if i mod 2 = 0 then
        func "victim"
          (Abi.frame_enter ~canary:true ~locals ()
          @ [
              load_canary Reg.r5;
              lea Reg.r1 (mem_b ~disp:(-4) Reg.fp);
              st (mem_b ~disp:(if bad then 0 else -8) Reg.r1) Reg.r5;
              movi Reg.r0 7;
            ]
          @ Abi.frame_leave ~canary:true ~locals ())
      else
        (* loop walking the locals upward; the bad bound includes the
           canary word *)
        let words = (locals / 4) + if bad then 0 else -1 in
        func "victim"
          (Abi.frame_enter ~canary:true ~locals ()
          @ [
              load_canary Reg.r5;
              lea Reg.r3 (mem_b ~disp:(-locals) Reg.fp);
              movi Reg.r1 0;
              label "walk";
              cmpi Reg.r1 words;
              jcc Insn.Ge "walkd";
              st (mem_bi ~scale:4 Reg.r3 Reg.r1) Reg.r5;
              addi Reg.r1 1;
              jmp "walk";
              label "walkd";
              movi Reg.r0 7;
            ]
          @ Abi.frame_leave ~canary:true ~locals ())
  in
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ] ~entry:"main"
    [ victim; func "main" ([ call "victim"; call_import "print_int" ] @ exit0) ]

let evaluate_family ?limit scheme fam =
  tally_cases scheme ~build:build_family_case
    ~expected:(fun c -> c.fc_expected)
    (limited limit (family_cases fam))
