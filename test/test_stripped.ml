(* Symbol-table visibility: stripped and export-only binaries.

   Footnote 7 of the paper: with full symbols, function entries come from
   the symbol table; without, from exported symbols plus direct-call
   target inference.  These tests pin that behaviour, plus the
   rule-reuse property of section 3.3.1 (a shared library is analyzed
   once, regardless of which program loads it). *)

let prog = Progs.stripped_prog

let test_entry_inference_when_stripped () =
  let m = prog ~symtab_level:Jt_obj.Objfile.Stripped in
  Alcotest.(check int) "no visible symbols" 0
    (List.length (Jt_obj.Objfile.visible_symbols m));
  let d = Jt_disasm.Disasm.run m in
  (* helper found through the direct call even without symbols *)
  let helper = (Jt_obj.Objfile.find_symbol m "helper" |> Option.get).vaddr in
  Alcotest.(check bool) "helper inferred" true (List.mem helper d.func_entries);
  let covered, total = Jt_disasm.Disasm.code_stats d in
  Alcotest.(check bool) "coverage holds" true (covered * 100 / total > 85)

let run_tool mk m =
  let tool = mk () in
  (Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
     ~main:m.Jt_obj.Objfile.name ())
    .o_result

let vkinds (r : Jt_vm.Vm.result) =
  List.sort_uniq compare (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)

let test_jasan_on_stripped () =
  List.iter
    (fun lvl ->
      let m = prog ~symtab_level:lvl in
      let r = run_tool (fun () -> fst (Jt_jasan.Jasan.create ())) m in
      Alcotest.(check (list string)) "detects regardless of symbols"
        [ "heap-buffer-overflow" ] (vkinds r);
      Alcotest.(check string) "output" "21\n" r.r_output)
    [ Jt_obj.Objfile.Full; Jt_obj.Objfile.Exported_only; Jt_obj.Objfile.Stripped ]

let test_jcfi_on_stripped () =
  let m = prog ~symtab_level:Jt_obj.Objfile.Stripped in
  let r = run_tool (fun () -> fst (Jt_jcfi.Jcfi.create ())) m in
  Alcotest.(check (list string)) "clean on stripped" [] (vkinds r)

(* Section 3.3.1: one analysis of libc.so serves every program. *)
let test_shared_library_rules_reused () =
  let tool, _ = Jt_jasan.Jasan.create () in
  (* a file of its own, not the one the driver keeps for libc *)
  let libc_rules =
    tool.t_static (Janitizer.Static_analyzer.compute Progs.libc)
  in
  (* two different programs, same precomputed libc rules *)
  List.iter
    (fun m ->
      let tool, _ = Jt_jasan.Jasan.create () in
      let with_precomputed =
        Janitizer.Driver.run ~tool
          ~precomputed:[ ("libc.so", libc_rules) ]
          ~registry:(Progs.registry_for m) ~main:m.Jt_obj.Objfile.name ()
      in
      let tool, _ = Jt_jasan.Jasan.create () in
      let fresh =
        Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
          ~main:m.Jt_obj.Objfile.name ()
      in
      Alcotest.(check string) "same output"
        fresh.o_result.r_output with_precomputed.o_result.r_output;
      Alcotest.(check int) "same cycles" fresh.o_result.r_cycles
        with_precomputed.o_result.r_cycles)
    [ Progs.sum_prog (); Progs.indirect_prog () ]

let () =
  Alcotest.run "stripped"
    [
      ( "visibility",
        [
          Alcotest.test_case "entry inference" `Quick test_entry_inference_when_stripped;
          Alcotest.test_case "jasan all levels" `Quick test_jasan_on_stripped;
          Alcotest.test_case "jcfi stripped" `Quick test_jcfi_on_stripped;
        ] );
      ( "rule-reuse",
        [ Alcotest.test_case "shared library" `Quick test_shared_library_rules_reused ] );
    ]
