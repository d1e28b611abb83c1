(* Driver hardening: [save_rules] must create nested directories and
   publish each file whole, module digests must see everything a tool
   reads, and the global metrics counters must be isolated between
   driver runs. *)

(* Unique-enough scratch root: [Filename.temp_file] reserves a fresh
   name for us (the empty file it creates is immediately removed and the
   name reused as a directory root). *)
let scratch_root =
  let f = Filename.temp_file "jt_driver_test" "" in
  Sys.remove f;
  f

let tmpdir sub = Filename.concat scratch_root sub

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let sample_file name =
  {
    Jt_rules.Rules.rf_module = name;
    rf_digest = "";
    rf_stats = [];
    rf_rules =
      List.init 5 (fun i ->
          Jt_rules.Rules.make ~id:0x101 ~bb:(0x400000 + (i * 16))
            ~insn:(0x400000 + (i * 16))
            ~data:[ 2; 1 ] ());
  }

(* The rule file [save_rules] wrote for [name]. *)
let read_rules ~dir name =
  Jt_rules.Rules.decode_file
    (Jt_codec.Codec.read_file (Filename.concat dir (name ^ ".jtr")))

(* -- save/read round trip, now through nested directories -- *)

let test_save_load_roundtrip () =
  let dir = tmpdir "roundtrip" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let f = sample_file "m" in
      Janitizer.Driver.save_rules ~dir [ ("m", f) ];
      let f' = read_rules ~dir "m" in
      Alcotest.(check string) "module name" "m" f'.Jt_rules.Rules.rf_module;
      Alcotest.(check int) "rule count" 5 (List.length f'.rf_rules))

let test_save_rules_nested_dir () =
  let root = tmpdir "nested" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      (* pre-fix: [Sys.mkdir] is single-level, so a nested cache path
         raised ENOENT *)
      let dir = Filename.concat (Filename.concat root "per-config") "jasan" in
      Janitizer.Driver.save_rules ~dir [ ("m", sample_file "m") ];
      Alcotest.(check bool) "nested dir created" true (Sys.is_directory dir);
      Alcotest.(check bool) "file written" true
        (Sys.file_exists (Filename.concat dir "m.jtr"));
      (* and again over the now-existing tree: idempotent *)
      Janitizer.Driver.save_rules ~dir [ ("m2", sample_file "m2") ];
      Alcotest.(check bool) "second save works" true
        (Sys.file_exists (Filename.concat dir "m2.jtr")))

(* A save publishes each file by rename: a torn file already at the
   final path is replaced whole, and no temp file survives. *)
let test_save_rules_atomic () =
  let dir = tmpdir "atomic" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Janitizer.Driver.save_rules ~dir [];
      let oc = open_out_bin (Filename.concat dir "m.jtr") in
      output_string oc "JTR3\x01";
      close_out oc;
      Janitizer.Driver.save_rules ~dir [ ("m", sample_file "m") ];
      Alcotest.(check bool) "torn file replaced" true
        (read_rules ~dir "m" = sample_file "m");
      Alcotest.(check (list string)) "no temp file left" [ "m.jtr" ]
        (Array.to_list (Sys.readdir dir)))

let test_module_digest_sensitivity () =
  let m = Progs.sum_prog ~n:30 () in
  let m' = Progs.sum_prog ~n:31 () in
  Alcotest.(check bool) "digest is deterministic" true
    (String.equal (Jt_obj.Objfile.digest m)
       (Jt_obj.Objfile.digest (Progs.sum_prog ~n:30 ())));
  Alcotest.(check bool) "different code, different digest" false
    (String.equal (Jt_obj.Objfile.digest m)
       (Jt_obj.Objfile.digest m'));
  (* same bytes, different metadata a tool reads *)
  List.iter
    (fun (what, (m' : Jt_obj.Objfile.t)) ->
      Alcotest.(check bool) (what ^ ", different digest") false
        (String.equal (Jt_obj.Objfile.digest m)
           (Jt_obj.Objfile.digest m')))
    [
      ("stripped", { m with symtab_level = Jt_obj.Objfile.Stripped });
      ("export-only", { m with symtab_level = Jt_obj.Objfile.Exported_only });
      ( "breaks calling convention",
        { m with features = Jt_obj.Objfile.Breaks_calling_convention :: m.features } );
      ("no symbols", { m with symbols = [] });
      ("extra dependency", { m with deps = "libm.so" :: m.deps });
    ]

(* -- fn_of_addr: indexed lookup must match the old linear scan -- *)

let test_fn_of_addr_equivalence () =
  let m = Progs.sum_prog ~n:30 () in
  let sa = Janitizer.Static_analyzer.analyze m in
  (* the pre-index implementation: first function in [sa_fns] order any
     of whose blocks contains an instruction at [addr] *)
  let reference addr =
    List.find_opt
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        Array.exists
          (fun (b : Jt_cfg.Cfg.block) ->
            Array.exists
              (fun (i : Jt_disasm.Disasm.insn_info) -> i.d_addr = addr)
              b.b_insns)
          fa.fa_fn.Jt_cfg.Cfg.f_blocks)
      sa.sa_fns
  in
  let entry_of (fa : Janitizer.Static_analyzer.fn_analysis) =
    fa.fa_fn.Jt_cfg.Cfg.f_entry
  in
  let probes = ref 0 in
  let check_addr addr =
    incr probes;
    Alcotest.(check (option int))
      (Printf.sprintf "fn_of_addr 0x%x" addr)
      (Option.map entry_of (reference addr))
      (Option.map entry_of (Janitizer.Static_analyzer.fn_of_addr sa addr))
  in
  (* every instruction address of every function (hits)... *)
  List.iter
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      Array.iter
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (i : Jt_disasm.Disasm.insn_info) -> check_addr i.d_addr)
            b.b_insns)
        fa.fa_fn.Jt_cfg.Cfg.f_blocks)
    sa.sa_fns;
  (* ...plus guaranteed misses *)
  List.iter check_addr [ 0; 1; 0x3F_FFFF; 0xDEAD_BEEF ];
  Alcotest.(check bool) "exercised some addresses" true (!probes > 10)

(* -- per-run counter isolation -- *)

let test_counters_isolated_between_runs () =
  let m = Progs.sum_prog ~n:30 () in
  let registry = Progs.registry_for m in
  let run () =
    let o = Janitizer.Driver.run_null ~registry ~main:"sum" () in
    (o, Jt_metrics.Metrics.Counters.snapshot ())
  in
  let o1, s1 = run () in
  let _, s2 = run () in
  (* dispatch work is counted in the engine's stats, not the counters *)
  Alcotest.(check bool) "first run dispatched" true
    ((Option.get o1.o_dbt).st_dispatch_entries > 0);
  List.iter2
    (fun (name, v1) (name2, v2) ->
      Alcotest.(check string) "same counter order" name name2;
      Alcotest.(check int) (name ^ " identical across runs") v1 v2)
    s1 s2;
  (* the tool-attached driver entry point resets too *)
  let tool, _ = Jt_jasan.Jasan.create () in
  ignore (Janitizer.Driver.run ~tool ~registry ~main:"sum" ());
  let s3 = Jt_metrics.Metrics.Counters.snapshot () in
  (* pre-fix, every counter doubled on the second run *)
  Alcotest.(check bool) "first tool run counted checks" true
    (List.assoc "san_checks" s3 > 0);
  ignore (Janitizer.Driver.run ~tool ~registry ~main:"sum" ());
  let s4 = Jt_metrics.Metrics.Counters.snapshot () in
  List.iter2
    (fun (name, v3) (_, v4) ->
      Alcotest.(check int) (name ^ " identical across tool runs") v3 v4)
    s3 s4

(* -- precomputed rule files: a by-name lookup before analysis -- *)

(* cactusADM dlopens its solver, a shared object outside the static
   closure: a file precomputed for it is still served when it loads. *)
let test_precomputed_by_name () =
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "cactusADM") in
  let registry = w.w_registry and main = "cactusADM" in
  let tool () = fst (Jt_jasan.Jasan.create ()) in
  let closure = Janitizer.Driver.static_closure ~registry ~main in
  let solver =
    List.find (fun (m : Jt_obj.Objfile.t) -> not (List.memq m closure)) registry
  in
  let files = Janitizer.Driver.analyze_all ~tool:(tool ()) (closure @ [ solver ]) in
  let rules fs =
    List.fold_left
      (fun acc (_, (f : Jt_rules.Rules.file)) -> acc + List.length f.rf_rules)
      0 fs
  in
  let a0 = Janitizer.Static_analyzer.analyses_performed () in
  let o = Janitizer.Driver.run ~tool:(tool ()) ~precomputed:files ~registry ~main () in
  Alcotest.(check int) "no module analyzed" 0
    (Janitizer.Static_analyzer.analyses_performed () - a0);
  Alcotest.(check int) "every file counted, the solver's too" (rules files)
    o.o_rule_count;
  let without =
    Janitizer.Driver.run ~tool:(tool ())
      ~precomputed:(List.remove_assoc solver.name files)
      ~registry ~main ()
  in
  Alcotest.(check bool) "the solver runs on its static rules" true
    (o.o_dynamic_fraction < without.o_dynamic_fraction);
  Alcotest.(check (pair string int)) "same output and icount"
    (without.o_result.r_output, without.o_result.r_icount)
    (o.o_result.r_output, o.o_result.r_icount)

(* -- domain-parallel determinism -- *)

(* Two [Driver.run]s on different domains must produce exactly what two
   back-to-back sequential runs produce: same simulator results *and*
   same per-run counters.  Counters/trace state is domain-local, so a
   job snapshots its own domain's counters before returning.  Pre-DLS,
   concurrent runs hammered one global counter record and this test
   raced. *)
let test_parallel_runs_match_sequential () =
  let eval tool_attached () =
    let m = Progs.sum_prog ~n:30 () in
    let registry = Progs.registry_for m in
    let o =
      if tool_attached then
        let tool, _ = Jt_jasan.Jasan.create () in
        Janitizer.Driver.run ~tool ~registry ~main:"sum" ()
      else Janitizer.Driver.run_null ~registry ~main:"sum" ()
    in
    let r = o.Janitizer.Driver.o_result in
    ( (Format.asprintf "%a" Jt_vm.Vm.pp_status r.Jt_vm.Vm.r_status),
      r.r_icount,
      r.r_cycles,
      r.r_output,
      List.length r.r_violations,
      o.o_rule_count,
      Jt_metrics.Metrics.Counters.snapshot () )
  in
  let jobs = [ eval false; eval true; eval false; eval true ] in
  let sequential = List.map (fun j -> j ()) jobs in
  let parallel = Jt_pool.Pool.run ~jobs:4 (fun j -> j ()) jobs in
  List.iteri
    (fun i (seq, par) ->
      let (s1, i1, c1, o1, v1, r1, cs1) = seq
      and (s2, i2, c2, o2, v2, r2, cs2) = par in
      let tag fmt = Printf.sprintf ("job %d " ^^ fmt) i in
      Alcotest.(check string) (tag "status") s1 s2;
      Alcotest.(check int) (tag "icount") i1 i2;
      Alcotest.(check int) (tag "cycles") c1 c2;
      Alcotest.(check string) (tag "output") o1 o2;
      Alcotest.(check int) (tag "violations") v1 v2;
      Alcotest.(check int) (tag "rules") r1 r2;
      List.iter2
        (fun (n, a) (n', b) ->
          Alcotest.(check string) (tag "counter order") n n';
          Alcotest.(check int) (tag "counter %s" n) a b)
        cs1 cs2)
    (List.combine sequential parallel)

let () =
  Alcotest.run "driver"
    [
      ( "rule-cache",
        [
          Alcotest.test_case "save/load round trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "nested cache dir" `Quick test_save_rules_nested_dir;
          Alcotest.test_case "atomic save" `Quick test_save_rules_atomic;
          Alcotest.test_case "digest sensitivity" `Quick
            test_module_digest_sensitivity;
        ] );
      ( "static-analyzer",
        [
          Alcotest.test_case "fn_of_addr equivalence" `Quick
            test_fn_of_addr_equivalence;
        ] );
      ( "precomputed",
        [ Alcotest.test_case "by name" `Quick test_precomputed_by_name ] );
      ( "counters",
        [
          Alcotest.test_case "isolated between runs" `Quick
            test_counters_isolated_between_runs;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "parallel runs match sequential" `Quick
            test_parallel_runs_match_sequential;
        ] );
    ]
