(* Code-pointer provenance analysis (CPA): per-site target sets, the
   Top-degradation contract, the interprocedural pass and the demand
   cone it solves, the resolved call graph, and the
   refinement-soundness oracle — every indirect call the workload sweep
   and the fuzz corpus actually execute must land inside its site's
   resolved set (or the site must be Top).  The IR codec of CPA sites
   is covered by test_ir.ml. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl
open Jt_workloads

(* -- a two-entry dispatch table CPA can bound exactly -- *)

let dispatch_prog () =
  build ~name:"cpa-disp" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:[ data "tbl" [ Dfuncptr "op0"; Dfuncptr "op1" ] ]
    [
      func "op0" [ addi Reg.r0 1; ret ];
      func "op1" [ addi Reg.r0 2; ret ];
      func "main"
        [
          call "op0";
          mov Reg.r3 Reg.r9;
          andi Reg.r3 1;
          addr_of_data ~pic:false Reg.r2 "tbl";
          ld Reg.r4 (mem_bi ~scale:4 Reg.r2 Reg.r3);
          call_reg Reg.r4;
          movi Reg.r0 0;
          syscall Sysno.exit_;
        ];
    ]

(* -- the same call through a pointer CPA cannot trace (loaded from an
   untracked address): the site must degrade to Top -- *)

let top_prog () =
  build ~name:"cpa-top" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ~datas:
      [
        data "cell" [ Dfuncptr "op0" ];
        data "cell2" [ Ddataptr "cell" ];
      ]
    [
      func "op0" [ addi Reg.r0 1; ret ];
      func "main"
        [
          (* two-hop chase: the first load yields a data pointer, which
             is not a tracked entry, so provenance is lost before the
             code pointer is ever read *)
          addr_of_data ~pic:false Reg.r1 "cell2";
          ld Reg.r2 (mem_b Reg.r1);
          ld Reg.r4 (mem_b Reg.r2);
          call_reg Reg.r4;
          movi Reg.r0 0;
          syscall Sysno.exit_;
        ];
    ]

let addr_of m name = (Jt_obj.Objfile.find_symbol m name |> Option.get).vaddr

let test_dispatch_resolved () =
  let m = dispatch_prog () in
  let sa = Janitizer.Static_analyzer.analyze m in
  let cpa = Lazy.force sa.sa_cpa in
  match Jt_analysis.Cpa.sites cpa with
  | [ s ] ->
    Alcotest.(check int) "site in main" (addr_of m "main") s.cs_fn;
    Alcotest.(check (option (list int)))
      "exact target set"
      (Some (List.sort compare [ addr_of m "op0"; addr_of m "op1" ]))
      s.cs_targets;
    Alcotest.(check bool) "witness anchors in main" true (s.cs_witness > 0)
  | sites -> Alcotest.failf "expected 1 indirect site, got %d" (List.length sites)

let test_top_degradation () =
  let m = top_prog () in
  let sa = Janitizer.Static_analyzer.analyze m in
  let cpa = Lazy.force sa.sa_cpa in
  (match Jt_analysis.Cpa.sites cpa with
  | [ s ] -> Alcotest.(check (option (list int))) "Top" None s.cs_targets
  | sites -> Alcotest.failf "expected 1 site, got %d" (List.length sites));
  (* Top sites emit no site_targets rules: the installed table falls
     back to the any-entry policy *)
  let tool, rt = Jt_jcfi.Jcfi.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
      ~main:m.Jt_obj.Objfile.name ()
  in
  Alcotest.(check (list string))
    "clean run" []
    (List.map (fun v -> v.Jt_vm.Vm.v_kind) o.o_result.r_violations);
  List.iter
    (fun ((l : Jt_loader.Loader.loaded), tbl) ->
      if l.lmod.Jt_obj.Objfile.name = m.Jt_obj.Objfile.name then
        Alcotest.(check int) "no site sets installed" 0
          (Jt_jcfi.Targets.n_site_sets tbl))
    (Jt_jcfi.Jcfi.Rt.tables rt)

let test_callgraph () =
  let m = dispatch_prog () in
  let sa = Janitizer.Static_analyzer.analyze m in
  let cg = Lazy.force sa.sa_callgraph in
  let main = addr_of m "main" in
  let has kind callee =
    List.exists
      (fun (e : Jt_cfg.Callgraph.edge) ->
        e.e_caller = main && e.e_callee = callee && e.e_kind = kind)
      (Jt_cfg.Callgraph.edges cg)
  in
  Alcotest.(check bool) "direct main->op0" true
    (has Jt_cfg.Callgraph.Direct (addr_of m "op0"));
  Alcotest.(check bool) "indirect main->op0" true
    (has Jt_cfg.Callgraph.Indirect (addr_of m "op0"));
  Alcotest.(check bool) "indirect main->op1" true
    (has Jt_cfg.Callgraph.Indirect (addr_of m "op1"));
  Alcotest.(check (list int)) "no unresolved sites" []
    (Jt_cfg.Callgraph.unresolved_sites cg);
  (* the Top program's lone site stays unresolved instead of growing
     edges to every entry *)
  let mt = top_prog () in
  let sat = Janitizer.Static_analyzer.analyze mt in
  let cgt = Lazy.force sat.sa_callgraph in
  Alcotest.(check int) "Top site unresolved" 1
    (List.length (Jt_cfg.Callgraph.unresolved_sites cgt));
  Alcotest.(check bool) "no indirect edges from Top" true
    (List.for_all
       (fun (e : Jt_cfg.Callgraph.edge) ->
         e.e_kind <> Jt_cfg.Callgraph.Indirect)
       (Jt_cfg.Callgraph.edges cgt))

(* -- satellite: dlopen'd module with no static hints takes the
   imprecise path, whose sites never consult CPA sets -- *)

let test_dlopen_imprecise () =
  let m = Progs.dlopen_prog () in
  let tool, rt = Jt_jcfi.Jcfi.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
      ~main:m.Jt_obj.Objfile.name ()
  in
  Alcotest.(check string) "plugin ran" "777\n" o.o_result.r_output;
  Alcotest.(check (list string))
    "clean" []
    (List.map (fun v -> v.Jt_vm.Vm.v_kind) o.o_result.r_violations);
  let l, tbl =
    List.find
      (fun ((l : Jt_loader.Loader.loaded), _) ->
        l.lmod.Jt_obj.Objfile.name = "plugin.so")
      (Jt_jcfi.Jcfi.Rt.tables rt)
  in
  Alcotest.(check bool) "runtime table is imprecise" false
    tbl.Jt_jcfi.Targets.precise;
  Alcotest.(check int) "no site sets" 0 (Jt_jcfi.Targets.n_site_sets tbl);
  let answer = Jt_loader.Loader.runtime_addr l (addr_of l.lmod "answer") in
  Alcotest.(check bool) "entry accepted" true
    (Jt_jcfi.Targets.intra_call_ok tbl answer);
  (* the run-time table writes no site-set hints, and its [call_ok] is
     the any-entry policy at every site *)
  Alcotest.(check bool) "imprecise table exposes no set" true
    (Jt_jcfi.Targets.site_set tbl ~site:0x1234 = None);
  Alcotest.(check bool) "imprecise call_ok never consults sets" true
    (Jt_jcfi.Targets.call_ok tbl ~site:0x1234 answer)

(* -- the refinement-soundness oracle -- *)

let oracle_violations rt =
  let tables = List.map snd (Jt_jcfi.Jcfi.Rt.tables rt) in
  List.filter
    (fun (site, target) ->
      List.exists
        (fun tbl ->
          match Jt_jcfi.Targets.site_set tbl ~site with
          | Some set -> not (List.mem target set)
          | None -> false)
        tables)
    (Jt_jcfi.Jcfi.Rt.observed_icalls rt)

let check_oracle name rt =
  match oracle_violations rt with
  | [] -> ()
  | (site, tgt) :: _ ->
    Alcotest.failf "%s: observed icall %d -> %d outside its resolved set" name
      site tgt

(* -- the interprocedural pass: [main] materializes [&op0] in [r0] and
   reaches the [call_reg r0] through [hops] direct calls; every helper
   but the last is closed, the last too unless [exported] -- *)

let hop_prog ~hops ~exported =
  let helper k = Printf.sprintf "h%d" k in
  build ~name:"cpa-hops" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
    ~entry:"main"
    ([ func "op0" [ addi Reg.r0 1; ret ] ]
    @ List.init hops (fun k ->
          if k = hops - 1 then
            func ~exported (helper (k + 1)) [ call_reg Reg.r0; ret ]
          else func (helper (k + 1)) [ call (helper (k + 2)); ret ])
    @ [
        func "main"
          [
            addr_of_func ~pic:false Reg.r0 "op0";
            call "h1";
            movi Reg.r0 0;
            syscall Sysno.exit_;
          ];
      ])

let test_interproc () =
  let site_of ~hops ~exported =
    let m = hop_prog ~hops ~exported in
    let sa = Janitizer.Static_analyzer.analyze m in
    match Jt_analysis.Cpa.sites (Lazy.force sa.sa_cpa) with
    | [ s ] ->
      Alcotest.(check int) "site in the last helper"
        (addr_of m (Printf.sprintf "h%d" hops)) s.cs_fn;
      (m, s)
    | sites -> Alcotest.failf "expected 1 site, got %d" (List.length sites)
  in
  List.iter
    (fun hops ->
      let m, s = site_of ~hops ~exported:false in
      Alcotest.(check (option (list int)))
        (Printf.sprintf "%d closed hop(s): exactly op0" hops)
        (Some [ addr_of m "op0" ]) s.cs_targets;
      Alcotest.(check bool) "witness in main" true
        (s.cs_witness >= addr_of m "main"))
    [ 1; 2 ];
  let _, s = site_of ~hops:1 ~exported:true in
  Alcotest.(check (option (list int))) "exported helper: Top" None s.cs_targets;
  (* the resolved two-hop set holds at run time *)
  let m = hop_prog ~hops:2 ~exported:false in
  let tool, rt = Jt_jcfi.Jcfi.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m)
      ~main:m.Jt_obj.Objfile.name ()
  in
  Alcotest.(check (list string))
    "clean run" []
    (List.map (fun v -> v.Jt_vm.Vm.v_kind) o.o_result.r_violations);
  Alcotest.(check int) "the site ran" 1
    (List.length (Jt_jcfi.Jcfi.Rt.observed_icalls rt));
  check_oracle "cpa-hops" rt

(* -- the demand cone: CPA forces the VSA of no function outside it -- *)

let forced (sa : Janitizer.Static_analyzer.t) =
  List.filter_map
    (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
      if Lazy.is_val fa.fa_vsa then Some fa.fa_fn.Jt_cfg.Cfg.f_entry else None)
    sa.sa_fns

let test_cone_vsa () =
  let m = dispatch_prog () in
  let sa = Janitizer.Static_analyzer.analyze m in
  ignore (Lazy.force sa.sa_cpa);
  Alcotest.(check (list int)) "cpa-disp: only main's VSA" [ addr_of m "main" ]
    (forced sa);
  List.iter
    (fun c ->
      let m = Jt_fuzz.Fuzz.build c in
      let sa = Janitizer.Static_analyzer.analyze m in
      Alcotest.(check int) "no indirect call site" 0
        (List.length (Jt_analysis.Cpa.sites (Lazy.force sa.sa_cpa)));
      Alcotest.(check (list int)) (m.Jt_obj.Objfile.name ^ ": no VSA forced") []
        (forced sa))
    (Jt_fuzz.Fuzz.cases_of ~base_seed:1 ~seeds:4)

let test_sweep_oracle () =
  (* the full workload sweep; also assert the oracle is not vacuous *)
  let resolved_hits = ref 0 in
  List.iter
    (fun (s : Sheet.t) ->
      let w = Specgen.build s in
      let tool, rt = Jt_jcfi.Jcfi.create () in
      let _ =
        Janitizer.Driver.run ~tool ~registry:w.Specgen.w_registry
          ~main:s.Sheet.s_name ()
      in
      let tables = List.map snd (Jt_jcfi.Jcfi.Rt.tables rt) in
      List.iter
        (fun (site, _) ->
          if
            List.exists
              (fun tbl -> Jt_jcfi.Targets.site_set tbl ~site <> None)
              tables
          then incr resolved_hits)
        (Jt_jcfi.Jcfi.Rt.observed_icalls rt);
      check_oracle s.Sheet.s_name rt)
    Sheet.all;
  Alcotest.(check bool) "some executed site was resolved" true
    (!resolved_hits > 0)

let corpus_oracle =
  QCheck2.Test.make ~name:"fuzz corpus targets inside resolved sets" ~count:25
    QCheck2.Gen.(pair (int_bound 500) bool)
    (fun (seed, pic) ->
      let m =
        Jt_fuzz.Fuzz.build
          { Jt_fuzz.Fuzz.fz_seed = seed; fz_pic = pic; fz_inject = None }
      in
      let tool, rt = Jt_jcfi.Jcfi.create () in
      let _ =
        Janitizer.Driver.run ~tool ~registry:[ m; Stdlibs.libc ]
          ~main:m.Jt_obj.Objfile.name ()
      in
      oracle_violations rt = [])

let () =
  Alcotest.run "cpa"
    [
      ( "analysis",
        [
          Alcotest.test_case "dispatch resolved" `Quick test_dispatch_resolved;
          Alcotest.test_case "top degradation" `Quick test_top_degradation;
          Alcotest.test_case "callgraph" `Quick test_callgraph;
          Alcotest.test_case "interprocedural" `Quick test_interproc;
          Alcotest.test_case "cone forces VSA" `Quick test_cone_vsa;
        ] );
      ( "policy",
        [ Alcotest.test_case "dlopen imprecise" `Quick test_dlopen_imprecise ] );
      ( "oracle",
        [
          Alcotest.test_case "workload sweep" `Slow test_sweep_oracle;
          QCheck_alcotest.to_alcotest corpus_oracle;
        ] );
    ]
