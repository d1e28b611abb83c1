(* Workload-scale integration: all 27 benchmarks behave, tool failure
   predicates hit exactly the benchmarks the paper reports, and the
   metric orderings that need realistic code sizes hold. *)

open Jt_workloads

let test_all_native_clean () =
  List.iter
    (fun s ->
      let w = Specgen.build s in
      let r = Specgen.run_native w in
      match r.r_status with
      | Jt_vm.Vm.Exited 0 ->
        Alcotest.(check bool)
          (s.Sheet.s_name ^ " produced output")
          true
          (String.length r.r_output > 0)
      | st ->
        Alcotest.failf "%s: %s" s.Sheet.s_name
          (Format.asprintf "%a" Jt_vm.Vm.pp_status st))
    Sheet.all

let subset = [ "perlbench"; "h264ref"; "cactusADM"; "lbm"; "xalancbmk"; "bwaves" ]

let test_subset_sound_under_tools () =
  List.iter
    (fun name ->
      let s = Sheet.find name in
      let w = Specgen.build s in
      let native = Specgen.run_native w in
      let check tag (r : Jt_vm.Vm.result) =
        Alcotest.(check string) (name ^ " " ^ tag ^ " output") native.r_output
          r.r_output
      in
      let tool_jasan, _ = Jt_jasan.Jasan.create () in
      check "jasan"
        (Janitizer.Driver.run ~tool:tool_jasan ~registry:w.w_registry ~main:name ())
          .o_result;
      let tool_jcfi, _ = Jt_jcfi.Jcfi.create () in
      let jcfi =
        Janitizer.Driver.run ~tool:tool_jcfi ~registry:w.w_registry ~main:name ()
      in
      check "jcfi" jcfi.o_result;
      Alcotest.(check (list string))
        (name ^ " jcfi no violations")
        []
        (List.sort_uniq compare
           (List.map (fun v -> v.Jt_vm.Vm.v_kind) jcfi.o_result.r_violations)))
    subset

let test_pic_builds_run () =
  List.iter
    (fun name ->
      let s = Sheet.find name in
      let w = Specgen.build ~kind:Jt_obj.Objfile.Exec_pic s in
      let r = Specgen.run_native w in
      match r.r_status with
      | Jt_vm.Vm.Exited 0 -> ()
      | st ->
        Alcotest.failf "%s/pic: %s" name
          (Format.asprintf "%a" Jt_vm.Vm.pp_status st))
    [ "bzip2"; "h264ref"; "mcf" ]

let test_retrowrite_applicability_pattern () =
  (* Applicable exactly on the pure-C benchmarks (given PIC builds). *)
  List.iter
    (fun s ->
      let w = Specgen.build ~kind:Jt_obj.Objfile.Exec_pic s in
      let verdict =
        Jt_baselines.Retrowrite_like.applicability ~registry:w.w_registry
          ~main:s.Sheet.s_name
      in
      let expected_ok = s.Sheet.s_lang = Sheet.C in
      Alcotest.(check bool)
        (s.Sheet.s_name ^ " retrowrite applicability")
        expected_ok
        (Option.is_none verdict))
    Sheet.all

let test_bincfi_failure_pattern () =
  List.iter
    (fun s ->
      let w = Specgen.build s in
      let verdict =
        Jt_baselines.Bincfi.applicability ~registry:w.w_registry
          ~main:s.Sheet.s_name
      in
      let should_break =
        List.mem s.Sheet.s_name [ "gamess"; "zeusmp" ]
      in
      Alcotest.(check bool)
        (s.Sheet.s_name ^ " bincfi breaks")
        should_break
        (Option.is_some verdict))
    Sheet.all

let test_lockdown_fp_pattern () =
  (* Strong-policy false positives exactly where the paper reports them:
     stack-passed callbacks in gcc, h264ref and cactusADM. *)
  List.iter
    (fun name ->
      let s = Sheet.find name in
      if not s.Sheet.s_fails_lockdown then begin
        let w = Specgen.build s in
        let r =
          Jt_baselines.Lockdown.run ~registry:w.w_registry ~main:name ()
        in
        let expected_fp = List.mem name [ "gcc"; "h264ref"; "cactusADM" ] in
        Alcotest.(check bool) (name ^ " lockdown fp") expected_fp
          r.lk_false_positive
      end)
    [ "gcc"; "h264ref"; "cactusADM"; "bzip2"; "mcf"; "milc" ]

let test_air_orderings_at_scale () =
  let s = Sheet.find "perlbench" in
  let w = Specgen.build s in
  let closure =
    Janitizer.Driver.static_closure ~registry:w.w_registry ~main:"perlbench"
  in
  let jcfi = Jt_jcfi.Air.static_jcfi closure in
  let bincfi = Jt_baselines.Bincfi.static_air closure in
  Alcotest.(check bool) "jcfi > bincfi" true (jcfi > bincfi);
  Alcotest.(check bool) "both high" true (jcfi > 97.0 && bincfi > 90.0)

let test_fig14_outliers () =
  let frac name =
    let s = Sheet.find name in
    let w = Specgen.build s in
    let tool, _ = Jt_jasan.Jasan.create () in
    (Janitizer.Driver.run ~tool ~registry:w.w_registry ~main:name ())
      .o_dynamic_fraction
  in
  Alcotest.(check bool) "cactusADM mostly dynamic" true (frac "cactusADM" > 0.85);
  let lbm = frac "lbm" in
  Alcotest.(check bool) "lbm outlier" true (lbm > 0.05 && lbm < 0.3);
  Alcotest.(check bool) "bzip2 fully static" true (frac "bzip2" < 0.01)

let () =
  Alcotest.run "workloads"
    [
      ( "integration",
        [
          Alcotest.test_case "all native" `Quick test_all_native_clean;
          Alcotest.test_case "sound under tools" `Slow test_subset_sound_under_tools;
          Alcotest.test_case "pic builds" `Quick test_pic_builds_run;
        ] );
      ( "failure-predicates",
        [
          Alcotest.test_case "retrowrite" `Quick test_retrowrite_applicability_pattern;
          Alcotest.test_case "bincfi" `Quick test_bincfi_failure_pattern;
          Alcotest.test_case "lockdown fp" `Slow test_lockdown_fp_pattern;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "air ordering" `Quick test_air_orderings_at_scale;
          Alcotest.test_case "fig14 outliers" `Slow test_fig14_outliers;
        ] );
    ]
