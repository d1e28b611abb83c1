(* The Juliet CWE-122 suite must reproduce Figure 10 exactly. *)

open Jt_workloads
module Scheme = Jt_schemes.Scheme

let test_structure () =
  Alcotest.(check int) "624 cases" 624 (List.length Juliet.cases);
  let count cat =
    List.length (List.filter (fun c -> c.Juliet.c_cat = cat) Juliet.cases)
  in
  Alcotest.(check int) "heap-heap" 312 (count Juliet.Heap_heap);
  Alcotest.(check int) "slack" 24 (count Juliet.Heap_heap_slack);
  Alcotest.(check int) "stack-heap" 144 (count Juliet.Stack_heap);
  Alcotest.(check int) "h2s contig" 48 (count Juliet.Heap_stack_contig);
  Alcotest.(check int) "h2s direct" 96 (count Juliet.Heap_stack_direct)

let test_cases_run_cleanly () =
  (* every variant of a sample from each category exits 0 natively *)
  List.iter
    (fun c ->
      List.iter
        (fun bad ->
          let m = Juliet.build_case c ~bad in
          let r =
            Jt_vm.Vm.run_native ~registry:(Juliet.registry_for m)
              ~main:m.Jt_obj.Objfile.name ()
          in
          match r.r_status with
          | Jt_vm.Vm.Exited 0 -> ()
          | st ->
            Alcotest.failf "case %d bad=%b: %s" c.c_id bad
              (Format.asprintf "%a" Jt_vm.Vm.pp_status st))
        [ false; true ])
    (List.filteri (fun k _ -> k mod 60 = 0) Juliet.cases)

let test_figure10_exact () =
  let j = Juliet.evaluate (Scheme.Jasan Hybrid) in
  Alcotest.(check int) "jasan TP" 528 j.t_true_pos;
  Alcotest.(check int) "jasan FN" 96 j.t_false_neg;
  Alcotest.(check int) "jasan TN" 624 j.t_true_neg;
  Alcotest.(check int) "jasan FP" 0 j.t_false_pos;
  let v = Juliet.evaluate Scheme.Valgrind in
  Alcotest.(check int) "valgrind TP" 504 v.t_true_pos;
  Alcotest.(check int) "valgrind FN" 120 v.t_false_neg;
  Alcotest.(check int) "valgrind TN" 624 v.t_true_neg;
  Alcotest.(check int) "valgrind FP" 0 v.t_false_pos

let test_dyn_mode_also_covers () =
  (* JASan without static analysis still catches the redzone categories
     (coverage comes from the dynamic fallback). *)
  let t = Juliet.evaluate ~limit:40 (Scheme.Jasan Dyn) in
  Alcotest.(check int) "dyn TP on heap-heap prefix" 40 t.t_true_pos;
  Alcotest.(check int) "dyn FP" 0 t.t_false_pos

(* ---- sibling CWE families (Figure 10 extension) ---- *)

let test_family_structure () =
  let count fam = List.length (Juliet.family_cases fam) in
  Alcotest.(check int) "cwe-124" 48 (count Juliet.Cwe124);
  Alcotest.(check int) "cwe-415" 48 (count Juliet.Cwe415);
  Alcotest.(check int) "cwe-416" 96 (count Juliet.Cwe416);
  Alcotest.(check int) "cwe-121" 72 (count Juliet.Cwe121);
  Alcotest.(check int) "total" 264 (List.length Juliet.all_family_cases);
  (* (family, id) keys the bench sweeps: no duplicates *)
  let keys =
    List.map (fun c -> (c.Juliet.fc_fam, c.Juliet.fc_id)) Juliet.all_family_cases
  in
  Alcotest.(check int)
    "unique keys"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_family_cases_run_cleanly () =
  (* recover mode all the way down: good and bad variants of a sample
     from every family exit 0 natively *)
  List.iter
    (fun c ->
      List.iter
        (fun bad ->
          let m = Juliet.build_family_case c ~bad in
          let r =
            Jt_vm.Vm.run_native ~registry:(Juliet.registry_for m)
              ~main:m.Jt_obj.Objfile.name ()
          in
          match r.r_status with
          | Jt_vm.Vm.Exited 0 -> ()
          | st ->
            Alcotest.failf "family case %d bad=%b: %s" c.fc_id bad
              (Format.asprintf "%a" Jt_vm.Vm.pp_status st))
        [ false; true ])
    (List.filteri (fun k _ -> k mod 24 = 0) Juliet.all_family_cases)

let check_family det fam ~tp ~fn =
  let t = Juliet.evaluate_family det fam in
  let name = Juliet.family_name fam in
  let total = List.length (Juliet.family_cases fam) in
  Alcotest.(check int) (name ^ " TP") tp t.t_true_pos;
  Alcotest.(check int) (name ^ " FN") fn t.t_false_neg;
  Alcotest.(check int) (name ^ " TN") total t.t_true_neg;
  Alcotest.(check int) (name ^ " FP") 0 t.t_false_pos

let test_families_jasan_exact () =
  check_family (Scheme.Jasan Hybrid) Juliet.Cwe124 ~tp:48 ~fn:0;
  check_family (Scheme.Jasan Hybrid) Juliet.Cwe415 ~tp:48 ~fn:0;
  check_family (Scheme.Jasan Hybrid) Juliet.Cwe416 ~tp:96 ~fn:0;
  check_family (Scheme.Jasan Hybrid) Juliet.Cwe121 ~tp:72 ~fn:0

let test_families_valgrind_exact () =
  (* identical on the heap families; blind to stack smashes *)
  check_family Scheme.Valgrind Juliet.Cwe124 ~tp:48 ~fn:0;
  check_family Scheme.Valgrind Juliet.Cwe415 ~tp:48 ~fn:0;
  check_family Scheme.Valgrind Juliet.Cwe416 ~tp:96 ~fn:0;
  check_family Scheme.Valgrind Juliet.Cwe121 ~tp:0 ~fn:72

let test_family_kinds () =
  (* bad variants report exactly the family's expected kind *)
  List.iter
    (fun fam ->
      let c = List.hd (Juliet.family_cases fam) in
      let t = Juliet.evaluate_family ~limit:1 (Scheme.Jasan Hybrid) fam in
      Alcotest.(check int) (c.Juliet.fc_kind ^ " caught") 1 t.t_true_pos)
    Juliet.families

let () =
  Alcotest.run "juliet"
    [
      ( "suite",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "cases run" `Quick test_cases_run_cleanly;
          Alcotest.test_case "figure 10 exact" `Slow test_figure10_exact;
          Alcotest.test_case "dyn coverage" `Quick test_dyn_mode_also_covers;
        ] );
      ( "families",
        [
          Alcotest.test_case "structure" `Quick test_family_structure;
          Alcotest.test_case "cases run" `Quick test_family_cases_run_cleanly;
          Alcotest.test_case "jasan exact" `Slow test_families_jasan_exact;
          Alcotest.test_case "valgrind exact" `Slow test_families_valgrind_exact;
          Alcotest.test_case "kinds" `Quick test_family_kinds;
        ] );
    ]
