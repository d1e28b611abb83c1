open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

(* ---- deterministic PRNG (splitmix64) ----
   OCaml's [Random] is out: its stream is version-dependent and global.
   Every case must regenerate bit-identically from its seed alone. *)
module Rng = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t n =
    if n <= 0 then invalid_arg "Rng.int";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

  let bool t = int t 2 = 1
end

(* ---- cases ---- *)

type inject = Overflow | Underwrite | Uaf | Double_free | Stack_smash

let injections = [ Overflow; Underwrite; Uaf; Double_free; Stack_smash ]

let inject_name = function
  | Overflow -> "overflow"
  | Underwrite -> "underwrite"
  | Uaf -> "uaf"
  | Double_free -> "double-free"
  | Stack_smash -> "stack-smash"

let expected_kind = function
  | Overflow | Underwrite -> "heap-buffer-overflow"
  | Uaf -> "heap-use-after-free"
  | Double_free -> "double-free"
  | Stack_smash -> "stack-buffer-overflow"

type case = { fz_seed : int; fz_pic : bool; fz_inject : inject option }

let case_name c =
  Printf.sprintf "fuzz_%04d_%s%s" c.fz_seed
    (match c.fz_inject with None -> "benign" | Some i -> inject_name i)
    (if c.fz_pic then "_pic" else "")

let cases_of ~base_seed ~seeds =
  List.concat_map
    (fun k ->
      let seed = base_seed + k in
      let pic = k mod 2 = 1 in
      { fz_seed = seed; fz_pic = pic; fz_inject = None }
      :: List.map (fun i -> { fz_seed = seed; fz_pic = pic; fz_inject = Some i }) injections)
    (List.init seeds Fun.id)

(* ---- program generator ----

   One [work] function under a canary frame: 2..4 heap blocks whose
   pointers are spilled to frame slots, in-bounds fill loops, a
   lea-addressed stack array, and a checksum printed at exit.  The
   checksum never depends on an address, so every scheme — whatever its
   redzone configuration does to the heap layout — must print the same
   bytes.  The injection, if any, is appended between the benign work
   and the cleanup frees, and is built to leave the checksum (and, for
   [Stack_smash], even the canary value) unchanged: natively each bad
   variant still exits 0 with benign output. *)

let build (c : case) =
  let rng = Rng.make c.fz_seed in
  let nblocks = 2 + Rng.int rng 3 in
  let block_regs = [| Reg.r6; Reg.r7; Reg.r9; Reg.r10 |] in
  let sizes = Array.init nblocks (fun _ -> 8 * (1 + Rng.int rng 6)) in
  let probe = Array.init nblocks (fun k -> Rng.int rng (sizes.(k) / 4)) in
  let stack_probe = Rng.int rng 4 in
  let victim = Rng.int rng nblocks in
  let freed = Array.init nblocks (fun _ -> Rng.bool rng) in
  let locals = 48 in
  let vreg = block_regs.(victim) in
  let fill k =
    let words = sizes.(k) / 4 in
    let r = block_regs.(k) in
    [
      movi Reg.r0 sizes.(k);
      call_import "malloc";
      mov r Reg.r0;
      st (Abi.local locals k) r;
      movi Reg.r1 0;
      label (Printf.sprintf "fill%d" k);
      cmpi Reg.r1 words;
      jcc Insn.Ge (Printf.sprintf "fill%dd" k);
      st (mem_bi ~scale:4 r Reg.r1) Reg.r1;
      addi Reg.r1 1;
      jmp (Printf.sprintf "fill%d" k);
      label (Printf.sprintf "fill%dd" k);
      ld Reg.r2 (mem_b ~disp:(4 * probe.(k)) r);
      add Reg.r8 Reg.r2;
    ]
  in
  (* indices 4..7 of the frame (fp-32 .. fp-20): clear of both the
     pointer spills (0..3) and the canary word *)
  let stack_array =
    [
      lea Reg.r3 (mem_b ~disp:(-32) Reg.fp);
      movi Reg.r1 0;
      label "sfill";
      cmpi Reg.r1 4;
      jcc Insn.Ge "sfilld";
      st (mem_bi ~scale:4 Reg.r3 Reg.r1) Reg.r1;
      addi Reg.r1 1;
      jmp "sfill";
      label "sfilld";
      ld Reg.r2 (mem_b ~disp:(4 * stack_probe) Reg.r3);
      add Reg.r8 Reg.r2;
    ]
  in
  let injection =
    match c.fz_inject with
    | None -> []
    | Some Overflow -> [ st (mem_b ~disp:sizes.(victim) vreg) Reg.r8 ]
    | Some Underwrite -> [ stb (mem_b ~disp:(-1) vreg) Reg.r8 ]
    | Some Uaf ->
      [ mov Reg.r0 vreg; call_import "free"; ld Reg.r2 (mem_b ~disp:0 vreg) ]
    | Some Double_free ->
      [ mov Reg.r0 vreg; call_import "free"; mov Reg.r0 vreg; call_import "free" ]
    | Some Stack_smash ->
      (* overwrite the canary slot with its own value, through a
         computed pointer: semantically invisible, shadow-visible *)
      [
        load_canary Reg.r5;
        lea Reg.r1 (mem_b ~disp:(-4) Reg.fp);
        st (mem_b ~disp:0 Reg.r1) Reg.r5;
      ]
  in
  let injection_frees =
    match c.fz_inject with Some (Uaf | Double_free) -> true | _ -> false
  in
  let cleanup =
    List.concat
      (List.init nblocks (fun k ->
           if freed.(k) && not (injection_frees && k = victim) then
             [ mov Reg.r0 block_regs.(k); call_import "free" ]
           else []))
  in
  let work =
    func "work"
      (Abi.frame_enter ~canary:true ~locals ()
      @ [ movi Reg.r8 0 ]
      @ List.concat (List.init nblocks fill)
      @ stack_array @ injection @ cleanup
      @ [ mov Reg.r0 Reg.r8 ]
      @ Abi.frame_leave ~canary:true ~locals ())
  in
  let kind = if c.fz_pic then Jt_obj.Objfile.Exec_pic else Jt_obj.Objfile.Exec_nonpic in
  build ~name:(case_name c) ~kind ~deps:[ "libc.so" ] ~entry:"main"
    [
      work;
      func "main"
        ([ call "work"; call_import "print_int"; movi Reg.r0 0; syscall Sysno.exit_ ]);
    ]

(* ---- schemes ---- *)

type scheme = Native | Hybrid | Emitted | Valgrind | Retrowrite | Lockdown | Bincfi

let schemes = [ Native; Hybrid; Emitted; Valgrind; Retrowrite; Lockdown; Bincfi ]

let to_scheme : scheme -> Jt_schemes.Scheme.t = function
  | Native -> Native
  | Hybrid -> Jasan Hybrid
  | Emitted -> Jasan_emitted
  | Valgrind -> Valgrind
  | Retrowrite -> Retrowrite
  | Lockdown -> Lockdown Strong
  | Bincfi -> Bincfi

let scheme_name s = Jt_schemes.Scheme.name (to_scheme s)

type detection =
  | Ran of Jt_vm.Vm.result * (int * int) option
      (** result, plus [(sites, pins)] for the emitted scheme's exact
          icount accounting *)
  | Refused of string

let registry_for m = [ m; Jt_workloads.Stdlibs.libc ]

let run_scheme scheme m =
  match
    Jt_schemes.Scheme.run (to_scheme scheme) ~registry:(registry_for m)
      ~main:m.Jt_obj.Objfile.name
  with
  | Ok o -> Ran (o.so_run.o_result, o.so_sites_pins)
  | Error r -> Refused (Jt_schemes.Scheme.refusal_to_string r)

(* ---- oracle ---- *)

type expectation = Expect_kinds of string list | Expect_refusal

let expected c scheme =
  let injected = match c.fz_inject with None -> [] | Some i -> [ expected_kind i ] in
  match scheme with
  | Native | Lockdown | Bincfi -> Expect_kinds []
  | Hybrid | Emitted -> Expect_kinds injected
  | Valgrind ->
    Expect_kinds (match c.fz_inject with Some Stack_smash -> [] | _ -> injected)
  | Retrowrite -> if c.fz_pic then Expect_kinds injected else Expect_refusal

let kinds (r : Jt_vm.Vm.result) =
  List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let vset (r : Jt_vm.Vm.result) =
  List.sort_uniq compare
    (List.map (fun v -> (v.Jt_vm.Vm.v_kind, v.Jt_vm.Vm.v_addr)) r.r_violations)

type mismatch = { mm_case : string; mm_scheme : string; mm_what : string }

type matrix_row = {
  mx_scheme : string;
  mx_tp : int;
  mx_fn : int;
  mx_tn : int;
  mx_fp : int;
  mx_refused : int;
}

type report = {
  rp_cases : int;
  rp_runs : int;
  rp_matrix : matrix_row list;
  rp_mismatches : mismatch list;
}

type acc = {
  mutable a_tp : int;
  mutable a_fn : int;
  mutable a_tn : int;
  mutable a_fp : int;
  mutable a_refused : int;
}

let check_case c =
  let m = build c in
  let name = case_name c in
  let mismatches = ref [] in
  let miss scheme what =
    mismatches := { mm_case = name; mm_scheme = scheme_name scheme; mm_what = what } :: !mismatches
  in
  let results = List.map (fun s -> (s, run_scheme s m)) schemes in
  let native =
    match List.assoc Native results with
    | Ran (r, _) -> r
    | Refused _ -> assert false (* Native never refuses *)
  in
  let outcomes =
    List.map
      (fun (scheme, det) ->
        let expect = expected c scheme in
        let outcome =
          match (det, expect) with
          | Refused why, Expect_refusal ->
            ignore why;
            `Refused
          | Refused why, Expect_kinds _ ->
            miss scheme (Printf.sprintf "unexpected refusal: %s" why);
            `Refused
          | Ran _, Expect_refusal ->
            miss scheme "expected a refusal, but the scheme ran";
            `Fn
          | Ran (r, accounting), Expect_kinds exp ->
            (* detection shape *)
            let got = kinds r in
            if got <> exp then
              miss scheme
                (Printf.sprintf "kinds [%s], expected [%s]"
                   (String.concat " " got) (String.concat " " exp));
            (* bit-identical observables, benign and injected alike
               (recover mode: detection never alters execution) *)
            if r.r_status <> native.r_status then miss scheme "exit status differs from native";
            if r.r_output <> native.r_output then miss scheme "output differs from native";
            (* exact instruction accounting *)
            (match accounting with
            | Some (sites, pins) ->
              if r.r_icount - sites - pins <> native.r_icount then
                miss scheme
                  (Printf.sprintf "icount %d - %d sites - %d pins <> native %d"
                     r.r_icount sites pins native.r_icount)
            | None ->
              if scheme <> Native && r.r_icount <> native.r_icount then
                miss scheme
                  (Printf.sprintf "icount %d <> native %d" r.r_icount native.r_icount));
            (* matrix classification is against ground truth (was a bug
               injected?), not against the per-scheme expectation: an
               expected miss — Valgrind on a stack smash, the CFI-only
               baselines on any memory bug — is still an FN row entry,
               exactly the Figure-10 story *)
            let injected_kind = Option.map expected_kind c.fz_inject in
            let spurious =
              List.exists (fun k -> Some k <> injected_kind) got
            in
            if spurious then `Fp
            else (
              match injected_kind with
              | Some k -> if List.mem k got then `Tp else `Fn
              | None -> `Tn)
        in
        (scheme, outcome))
      results
  in
  (* the two Janitizer modes must agree on the exact violation set
     (kind, address) — pc-independent, so static re-layout is fine *)
  (match (List.assoc Hybrid results, List.assoc Emitted results) with
  | Ran (h, _), Ran (e, _) ->
    if vset h <> vset e then miss Hybrid "violation set differs from emitted"
  | _ -> ());
  (outcomes, List.rev !mismatches)

let run_suite ?(base_seed = 1) ?(seeds = 84) () =
  let cases = cases_of ~base_seed ~seeds in
  let accs =
    List.map
      (fun s -> (s, { a_tp = 0; a_fn = 0; a_tn = 0; a_fp = 0; a_refused = 0 }))
      schemes
  in
  let mismatches = ref [] in
  let runs = ref 0 in
  List.iter
    (fun c ->
      let outcomes, mm = check_case c in
      runs := !runs + List.length outcomes;
      mismatches := !mismatches @ mm;
      List.iter
        (fun (scheme, outcome) ->
          let a = List.assoc scheme accs in
          match outcome with
          | `Tp -> a.a_tp <- a.a_tp + 1
          | `Fn -> a.a_fn <- a.a_fn + 1
          | `Tn -> a.a_tn <- a.a_tn + 1
          | `Fp -> a.a_fp <- a.a_fp + 1
          | `Refused -> a.a_refused <- a.a_refused + 1)
        outcomes)
    cases;
  {
    rp_cases = List.length cases;
    rp_runs = !runs;
    rp_matrix =
      List.map
        (fun (s, a) ->
          {
            mx_scheme = scheme_name s;
            mx_tp = a.a_tp;
            mx_fn = a.a_fn;
            mx_tn = a.a_tn;
            mx_fp = a.a_fp;
            mx_refused = a.a_refused;
          })
        accs;
    rp_mismatches = !mismatches;
  }
