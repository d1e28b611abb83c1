(* The AOT emitter (Jt_emit): differential equivalence against the
   hybrid DBT, the zero-translation-overhead cycle identity, refusal
   verdicts, the map codec, and JELF round-trips of emitted objects. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl
module Emit = Jt_emit.Emit

let observable (r : Jt_vm.Vm.result) = (r.r_status, r.r_output)

let vset (r : Jt_vm.Vm.result) =
  List.sort_uniq compare
    (List.map (fun v -> (v.Jt_vm.Vm.v_kind, v.v_addr)) r.r_violations)

let emit_asan ?(elide = true) ~registry ~main () =
  match
    Emit.emit_program ~tool:(Emit.Asan { elide }) ~registry ~main ()
  with
  | Ok p -> p
  | Error (n, r) ->
    Alcotest.failf "emit refused %s: %s" n (Emit.refusal_to_string r)

let run_hybrid ?(elide = true) ~registry ~main () =
  let tool, _ = Jt_jasan.Jasan.create ~elide () in
  Janitizer.Driver.run ~tool ~registry ~main ()

(* An uninstrumented run under the same allocator policy (redzones, but
   no checks): the honest cost baseline for the zero-translation-overhead
   identity, since allocator interposition itself shifts heap layout and
   charges hook cycles in every sanitized arm. *)
let run_baseline ~registry ~main () =
  Janitizer.Driver.run_plain
    ~setup:(fun vm -> Jt_jasan.Jasan.Rt.attach (Jt_jasan.Jasan.Rt.create ()) vm)
    ~registry ~main ()

(* The full differential the bench gates on: same status, output and
   violation set as the hybrid DBT, and the emitted run's instruction
   and cycle counts decompose exactly into baseline + materialized
   instrumentation — nothing left over for translation to hide in. *)
let check_differential label ~registry ~main =
  let p = emit_asan ~registry ~main () in
  let e = Emit.run p in
  let h = run_hybrid ~registry ~main () in
  let b = run_baseline ~registry ~main () in
  Alcotest.(check bool)
    (label ^ " status+output = hybrid")
    true
    (observable e.ro_outcome.o_result = observable h.o_result);
  Alcotest.(check bool)
    (label ^ " violations = hybrid")
    true
    (vset e.ro_outcome.o_result = vset h.o_result);
  Alcotest.(check int)
    (label ^ " icount = hybrid + sites + pins")
    (h.o_result.r_icount + e.ro_sites + e.ro_pins)
    e.ro_outcome.o_result.r_icount;
  Alcotest.(check int)
    (label ^ " icount = baseline + sites + pins")
    (b.o_result.r_icount + e.ro_sites + e.ro_pins)
    e.ro_outcome.o_result.r_icount;
  Alcotest.(check int)
    (label ^ " cycles = baseline + checks + pin hops")
    (b.o_result.r_cycles + e.ro_check_cost + e.ro_pins)
    e.ro_outcome.o_result.r_cycles;
  e

let emittable (s : Jt_workloads.Sheet.t) =
  match s.s_lang with
  | Jt_workloads.Sheet.C -> true
  | Cxx | Fortran | Mixed_cf -> false

(* Every C workload: full differential.  Cxx/Fortran closures carry the
   features a static rewriter must refuse (exception tables, runtime
   conventions) — assert the typed verdict instead. *)
let test_workloads_differential () =
  List.iter
    (fun (s : Jt_workloads.Sheet.t) ->
      let w = Jt_workloads.Specgen.build s in
      if emittable s then
        ignore
          (check_differential s.s_name ~registry:w.w_registry ~main:s.s_name)
      else
        match
          Emit.emit_program
            ~tool:(Emit.Asan { elide = true })
            ~registry:w.w_registry ~main:s.s_name ()
        with
        | Ok _ -> Alcotest.failf "%s: expected a feature refusal" s.s_name
        | Error (_, Emit.Unsupported_feature _) -> ()
        | Error (n, r) ->
          Alcotest.failf "%s: wrong refusal %s: %s" s.s_name n
            (Emit.refusal_to_string r))
    Jt_workloads.Sheet.all

(* Injected violations: the emitted checks must find exactly what the
   hybrid finds, at the same data addresses. *)
let test_injections_differential () =
  List.iter
    (fun (label, m) ->
      let e =
        check_differential label
          ~registry:(Progs.registry_for m)
          ~main:m.Jt_obj.Objfile.name
      in
      Alcotest.(check bool)
        (label ^ " still detects")
        true
        (vset e.ro_outcome.o_result <> []))
    [
      ("heap overflow", Progs.heap_overflow_prog ());
      ("use after free", Progs.uaf_prog ());
      ("stack smash", Progs.stack_smash_prog ~bad:true ());
    ]

(* Juliet CWE-122, both variants of a slice of cases: detection parity
   between the emitted binary and the hybrid DBT. *)
let test_juliet_differential () =
  List.iteri
    (fun i (c : Jt_workloads.Juliet.case) ->
      if i < 40 then
        List.iter
          (fun bad ->
            let m = Jt_workloads.Juliet.build_case c ~bad in
            let registry = Jt_workloads.Juliet.registry_for m in
            ignore
              (check_differential
                 (Printf.sprintf "juliet %d bad=%b" c.c_id bad)
                 ~registry ~main:m.Jt_obj.Objfile.name))
          [ false; true ])
    Jt_workloads.Juliet.cases

(* dlopen'd plugins are registry extras: emitted opportunistically and
   instrumented statically where the hybrid falls back to dynamic
   instrumentation — observables still agree. *)
let test_dlopen_plugin () =
  let m = Progs.dlopen_prog () in
  let e =
    check_differential "dlopen" ~registry:(Progs.registry_for m) ~main:"dlo"
  in
  Alcotest.(check string) "plugin output" "777\n" e.ro_outcome.o_result.r_output

(* JIT code is invisible to any static rewriter; the emitted binary
   still runs it natively with identical observables. *)
let test_jit_program () =
  let m = Progs.jit_prog () in
  let e =
    check_differential "jit" ~registry:(Progs.registry_for m) ~main:"jitprog"
  in
  Alcotest.(check string) "jit output" "123\n" e.ro_outcome.o_result.r_output

(* -- JCFI emission -- *)

let run_emit_cfi m =
  let registry = Progs.registry_for m in
  let main = m.Jt_obj.Objfile.name in
  match
    Emit.emit_program ~tool:(Emit.Cfi Jt_jcfi.Jcfi.default_config) ~registry
      ~main ()
  with
  | Error (n, r) ->
    Alcotest.failf "cfi emit refused %s: %s" n (Emit.refusal_to_string r)
  | Ok p -> Emit.run p

let kinds (r : Jt_vm.Vm.result) =
  List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let test_cfi_clean_and_detect () =
  (* benign control flow (indirect calls, jump table, lazy PLT) is
     accepted... *)
  List.iter
    (fun (label, m, expected) ->
      let e = run_emit_cfi m in
      Alcotest.(check (list string)) (label ^ " clean") []
        (kinds e.ro_outcome.o_result);
      Alcotest.(check string) (label ^ " output") expected
        e.ro_outcome.o_result.r_output)
    [
      ("sum", Progs.sum_prog (), Progs.sum_expected 50);
      ("indirect", Progs.indirect_prog (), "222\n");
      ("dlopen", Progs.dlopen_prog (), "777\n");
    ];
  (* ...and a mid-function indirect call is flagged where the hybrid
     flags it: the violation address is the data-borne target, which
     address pinning keeps in old coordinates. *)
  let m =
    build ~name:"hijack2" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [
        func "helper" [ movi Reg.r0 5; addi Reg.r0 10; ret ];
        func "main"
          ([
             addr_of_func ~pic:false Reg.r1 "helper";
             addi Reg.r1 6;
             call_reg Reg.r1;
             call_import "print_int";
           ]
          @ Progs.exit0);
      ]
  in
  let e = run_emit_cfi m in
  let tool, _ = Jt_jcfi.Jcfi.create () in
  let h =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"hijack2"
      ()
  in
  Alcotest.(check bool)
    "icall hijack detected" true
    (List.mem "cfi-icall" (kinds e.ro_outcome.o_result));
  Alcotest.(check bool)
    "same icall violations as hybrid" true
    (vset e.ro_outcome.o_result = vset h.o_result)

(* -- refusal verdicts -- *)

let emit_main_of m =
  let tool, _ = Jt_jasan.Jasan.create () in
  let sa = Janitizer.Static_analyzer.analyze m in
  Emit.emit_module ~tool:(Emit.Asan { elide = true })
    ~rules:(tool.Janitizer.Tool.t_static sa) sa

let test_feature_refusals () =
  List.iter
    (fun feature ->
      let m =
        build ~name:"feat" ~kind:Jt_obj.Objfile.Exec_nonpic
          ~deps:[ "libc.so" ] ~features:[ feature ] ~entry:"main"
          [ func "main" Progs.exit0 ]
      in
      match emit_main_of m with
      | Error (Emit.Unsupported_feature ("feat", _)) -> ()
      | Error r -> Alcotest.failf "wrong refusal: %s" (Emit.refusal_to_string r)
      | Ok _ -> Alcotest.fail "expected refusal")
    [ Jt_obj.Objfile.Cxx_exceptions; Jt_obj.Objfile.Fortran_runtime ]

let test_digest_mismatch_rejected () =
  let m = Progs.sum_prog () in
  let other = Progs.sum_prog ~n:51 () in
  let tool, _ = Jt_jasan.Jasan.create () in
  let rules = List.assoc "sum" (Janitizer.Driver.analyze_all ~tool [ other ]) in
  let sa = Janitizer.Static_analyzer.analyze m in
  Alcotest.check_raises "stale rules rejected"
    (Invalid_argument "Jt_emit.emit_module: rules digest does not match module")
    (fun () ->
      ignore (Emit.emit_module ~tool:(Emit.Asan { elide = true }) ~rules sa))

(* -- emission analyzes each module once -- *)

let test_one_analysis_per_module () =
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2") in
  (* No other test here emits with [elide = false], so under this tool
     tag the process has not rewritten any of these modules yet. *)
  let emit () =
    let a0 = Janitizer.Static_analyzer.analyses_performed () in
    let p = emit_asan ~elide:false ~registry:w.w_registry ~main:"bzip2" () in
    (p, Janitizer.Static_analyzer.analyses_performed () - a0)
  in
  let p, analyses = emit () in
  (* every analyzed module ends up emitted or skipped with a refusal:
     the static closure (ld.so, libc.so, libm.so, bzip2) plus the two
     unreachable libraries, libcxx.so and libgfortran.so *)
  let modules = List.length p.p_emitted + List.length p.p_skipped in
  Alcotest.(check int) "bzip2 registry plus ld.so" 6 modules;
  Alcotest.(check int) "one analysis per module" modules analyses;
  Alcotest.(check int) "one rule file per module" modules
    (List.length p.p_rules);
  (* the five shared objects are reused: only bzip2 is analyzed again,
     and the second program is the first one *)
  let p', analyses' = emit () in
  Alcotest.(check int) "only the executable re-analyzed" 1 analyses';
  Alcotest.(check bool) "same registry" true (p'.p_registry = p.p_registry);
  Alcotest.(check bool) "same rules" true (p'.p_rules = p.p_rules);
  Alcotest.(check bool) "same refusals" true (p'.p_skipped = p.p_skipped)

(* -- the map codec -- *)

let sample_map () =
  {
    Emit.em_digest = String.make 16 'd';
    em_tool = "jasan+elide";
    em_text = 0x5000;
    em_insns =
      [|
        { Emit.mi_old = 0x400; mi_new = 0x5000; mi_site = true };
        { Emit.mi_old = 0x406; mi_new = 0x5008; mi_site = false };
      |];
    em_pins = [| (0x400, 0x5000) |];
  }

let test_map_roundtrip () =
  let em = sample_map () in
  let em' = Emit.decode_map (Emit.encode_map em) in
  Alcotest.(check bool) "map round-trips" true (em = em')

let gen_map =
  let open QCheck2.Gen in
  let word = int_bound 0xFFFF_FFFF in
  let* em_digest = string_size (int_bound 16) in
  let* em_tool = string_size ~gen:printable (int_bound 12) in
  let* em_text = word in
  let* insns =
    list_size (int_bound 40)
      (let* mi_old = word in
       let* mi_new = word in
       let* mi_site = bool in
       return { Emit.mi_old; mi_new; mi_site })
  in
  let* pins = list_size (int_bound 10) (pair word word) in
  return
    {
      Emit.em_digest;
      em_tool;
      em_text;
      em_insns = Array.of_list insns;
      em_pins = Array.of_list pins;
    }

let prop_map_roundtrip =
  QCheck2.Test.make ~name:"map decode (encode m) = m" ~count:300 gen_map
    (fun em -> Emit.decode_map (Emit.encode_map em) = em)

let format = "JEM1"

let test_map_rejects_garbage () =
  let enc = Emit.encode_map (sample_map ()) in
  let expect_fail reason label s =
    Progs.expect_decode_error ~format ~reason label (fun () -> Emit.decode_map s)
  in
  expect_fail "bad magic" "bad magic"
    ("XXXX" ^ String.sub enc 4 (String.length enc - 4));
  expect_fail "truncated" "truncated" (String.sub enc 0 (String.length enc - 3));
  expect_fail "trailing bytes" "trailing bytes" (enc ^ "\x00")

(* Every one-bit flip and every truncation of the map emitted for
   bzip2's main module is rejected by the frame. *)
let test_map_byte_flips () =
  let m' =
    match
      Emit.emit_module ~tool:(Emit.Asan { elide = true })
        ~rules:(Progs.bzip2_jasan_rules ())
        (Lazy.force Progs.bzip2_analysis)
    with
    | Ok m' -> m'
    | Error r -> Alcotest.failf "emit refused: %s" (Emit.refusal_to_string r)
  in
  match Jt_obj.Objfile.find_section m' Emit.map_section_name with
  | Some s -> Progs.sealed_sweep ~format Emit.decode_map s.Jt_obj.Section.data
  | None -> Alcotest.fail "emitted module has no map"

(* -- emitted-object structure -- *)

let test_emitted_object_shape () =
  let m = Progs.sum_prog () in
  let m' = Result.get_ok (emit_main_of m) in
  Alcotest.(check string) "same name" m.Jt_obj.Objfile.name m'.name;
  Alcotest.(check bool)
    "metadata unchanged" true
    (m.entry = m'.entry && m.symbols = m'.symbols && m.relocs = m'.relocs
   && m.imports = m'.imports && m.exports = m'.exports && m.deps = m'.deps);
  let text =
    Option.get (Jt_obj.Objfile.find_section m' Emit.text_section_name)
  in
  Alcotest.(check bool) "text is code" true text.is_code;
  let em = Option.get (Emit.read_map m') in
  Alcotest.(check string)
    "map records original digest"
    (Jt_obj.Objfile.digest m)
    em.em_digest;
  Alcotest.(check int) "map text base" text.vaddr em.em_text;
  Alcotest.(check bool) "has pins" true (Array.length em.em_pins > 0);
  (* entry is pinned *)
  let entry = Option.get m.entry in
  Alcotest.(check bool)
    "entry pinned" true
    (Array.exists (fun (old, _) -> old = entry) em.em_pins)

(* The emitter hands each object it emits the map it has just encoded;
   a new object with flipped map bytes is still decoded afresh, and its
   seal rejects it, both when read and when a run attaches to it. *)
let test_flipped_map_copy () =
  let m = Progs.sum_prog () in
  let registry = Progs.registry_for m in
  let main = m.Jt_obj.Objfile.name in
  let p = emit_asan ~registry ~main () in
  let m' =
    List.find (fun (r : Jt_obj.Objfile.t) -> String.equal r.name main) p.p_registry
  in
  ignore (Option.get (Emit.read_map m'));
  let flip (s : Jt_obj.Section.t) =
    if String.equal s.name Emit.map_section_name then begin
      let b = Bytes.of_string s.data in
      let i = Bytes.length b - 17 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 1);
      { s with data = Bytes.to_string b }
    end
    else s
  in
  let bad = { m' with sections = List.map flip m'.sections } in
  let rejected label f =
    Progs.expect_decode_error ~format:"JEM1" ~reason:"checksum mismatch" label f
  in
  rejected "read_map" (fun () -> Emit.read_map bad);
  rejected "read_map again" (fun () -> Emit.read_map bad);
  rejected "run" (fun () ->
      Emit.run
        {
          p with
          p_registry =
            List.map
              (fun (r : Jt_obj.Objfile.t) -> if r == m' then bad else r)
              p.p_registry;
        });
  Alcotest.(check bool) "the emitted object still reads" true
    (Option.is_some (Emit.read_map m'))

(* -- qcheck: emitted JELF round-trips and re-analyzes -- *)

let corpus =
  [
    (fun () -> Progs.sum_prog ());
    (fun () -> Progs.heap_overflow_prog ());
    (fun () -> Progs.uaf_prog ());
    (fun () -> Progs.stack_smash_prog ~bad:true ());
    (fun () -> Progs.dlopen_prog ());
    (fun () -> Progs.indirect_prog ());
    (fun () -> Progs.jit_prog ());
  ]

let prop_emitted_jelf_roundtrip =
  QCheck2.Test.make ~name:"emitted JELF re-reads and re-analyzes" ~count:20
    (QCheck2.Gen.int_bound (List.length corpus - 1))
    (fun i ->
      let m = (List.nth corpus i) () in
      let m' = Result.get_ok (emit_main_of m) in
      let back = Jt_obj.Jelf.read (Jt_obj.Jelf.write m') in
      (* byte-exact container round-trip... *)
      assert (back = m');
      assert (Jt_obj.Objfile.digest back = Jt_obj.Objfile.digest m');
      (* ...the read-back object still analyzes (disassembly, CFG,
         helper passes over the patched + emitted sections)... *)
      let sa = Janitizer.Static_analyzer.analyze back in
      assert (Janitizer.Static_analyzer.function_entries sa <> []);
      (* ...and substituting it into the program changes nothing. *)
      let registry = Progs.registry_for m in
      let main = m.Jt_obj.Objfile.name in
      let p = emit_asan ~registry ~main () in
      let subst =
        List.map
          (fun (r : Jt_obj.Objfile.t) ->
            if String.equal r.name main then back else r)
          p.p_registry
      in
      let e = Emit.run p in
      let e' = Emit.run { p with p_registry = subst } in
      observable e.ro_outcome.o_result = observable e'.ro_outcome.o_result
      && vset e.ro_outcome.o_result = vset e'.ro_outcome.o_result)

(* -- unload hygiene -- *)

(* dlclose must drop the plugin's sites and pins; a second dlopen (new
   base slot) reinstalls them at the new addresses. *)
let test_dlclose_reopen () =
  let prog =
    build ~name:"dlcycle" ~kind:Jt_obj.Objfile.Exec_nonpic
      ~deps:[ "libc.so" ] ~entry:"main"
      ~datas:
        [
          data "modname" [ Dbytes "plugin.so\x00" ];
          data "symname" [ Dbytes "answer\x00" ];
        ]
      [
        func "call_plugin"
          [
            addr_of_data ~pic:false Reg.r0 "modname";
            syscall Sysno.dlopen;
            mov Reg.r5 Reg.r0;
            addr_of_data ~pic:false Reg.r1 "symname";
            syscall Sysno.dlsym;
            call_reg Reg.r0;
            call_import "print_int";
            mov Reg.r0 Reg.r5;
            syscall Sysno.dlclose;
            ret;
          ];
        func "main" ([ call "call_plugin"; call "call_plugin" ] @ Progs.exit0);
      ]
  in
  let registry = [ prog; Progs.libc; Progs.plugin ] in
  let e = check_differential "dlcycle" ~registry ~main:"dlcycle" in
  Alcotest.(check string)
    "both rounds ran" "777\n777\n" e.ro_outcome.o_result.r_output

let () =
  Alcotest.run "emit"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads" `Slow test_workloads_differential;
          Alcotest.test_case "injections" `Quick test_injections_differential;
          Alcotest.test_case "juliet slice" `Slow test_juliet_differential;
          Alcotest.test_case "dlopen plugin" `Quick test_dlopen_plugin;
          Alcotest.test_case "jit program" `Quick test_jit_program;
          Alcotest.test_case "dlclose/reopen" `Quick test_dlclose_reopen;
        ] );
      ( "cfi",
        [ Alcotest.test_case "clean + detect" `Quick test_cfi_clean_and_detect ]
      );
      ( "refusals",
        [
          Alcotest.test_case "features" `Quick test_feature_refusals;
          Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch_rejected;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "one analysis per module" `Quick
            test_one_analysis_per_module;
        ] );
      ( "map",
        [
          Alcotest.test_case "roundtrip" `Quick test_map_roundtrip;
          Alcotest.test_case "garbage" `Quick test_map_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_map_roundtrip;
          Alcotest.test_case "bzip2 byte flips" `Quick test_map_byte_flips;
          Alcotest.test_case "flipped copy rejected" `Quick test_flipped_map_copy;
        ] );
      ( "object",
        [
          Alcotest.test_case "shape" `Quick test_emitted_object_shape;
          QCheck_alcotest.to_alcotest prop_emitted_jelf_roundtrip;
        ] );
    ]
