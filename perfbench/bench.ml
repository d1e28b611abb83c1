(* The benchmark every performance claim in this repository is measured
   with: three workloads, end-to-end metrics from an untraced run and
   per-layer metrics from a traced one.

     python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 25 --trace 0

   One client on one domain issues ops back to back (a closed loop, no
   pool).  A run's inputs derive from --seed alone.  Set-up generates
   them and their native reference outputs (the oracle), at least three
   times; the timed window then runs whole rounds of ops until --seconds have
   passed, checking every op against the oracle.  The last line of
   standard output is one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).  README.md in this
   directory describes the workloads, the metrics and the layer map. *)

open Jt_workloads
module Vm = Jt_vm.Vm
module Driver = Janitizer.Driver
module Sa = Janitizer.Static_analyzer
module Tool = Janitizer.Tool
module Fuzz = Jt_fuzz.Fuzz
module Emit = Jt_emit.Emit
module Trace = Jt_trace.Trace
module Counters = Jt_metrics.Metrics.Counters

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let corrupt = ref ""
let out_dir = Filename.concat "perfbench" "_out"

(* ---- the oracle ---- *)

let attempted = ref 0
let failed = ref 0
let op_failed = ref false
let op_name = ref ""

(* An op counts as failed once, however many of its checks break. *)
let fail what =
  if not !op_failed then begin
    op_failed := true;
    incr failed;
    if !failed <= 10 then Printf.eprintf "perfbench: %s: %s\n%!" !op_name what
  end

type reference = {
  rf_status : Vm.status;
  rf_output : string;
  rf_icount : int;
  rf_cycles : int;
}

(* [--corrupt output] (self-test only) breaks every reference output. *)
let reference_of (r : Vm.result) =
  {
    rf_status = r.r_status;
    rf_output = (if !corrupt = "output" then r.r_output ^ "#" else r.r_output);
    rf_icount = r.r_icount;
    rf_cycles = r.r_cycles;
  }

let observe rf (r : Vm.result) =
  if r.r_status <> rf.rf_status then fail "exit status differs from native"
  else if r.r_output <> rf.rf_output then fail "output differs from native"

let same_icount rf (r : Vm.result) =
  if r.r_icount <> rf.rf_icount then
    fail (Printf.sprintf "icount %d, native %d" r.r_icount rf.rf_icount)

(* ---- totals over the timed rounds ---- *)

let counts : (string, float ref) Hashtbl.t = Hashtbl.create 64

let add name x =
  match Hashtbl.find_opt counts name with
  | Some r -> r := !r +. x
  | None -> Hashtbl.replace counts name (ref x)

let addi name n = add name (float_of_int n)

let get name =
  match Hashtbl.find_opt counts name with Some r -> !r | None -> 0.0

let slowdowns : (string, float list ref) Hashtbl.t = Hashtbl.create 8

let slowdown key rf (r : Vm.result) =
  let x = float_of_int r.r_cycles /. float_of_int rf.rf_cycles in
  match Hashtbl.find_opt slowdowns key with
  | Some l -> l := x :: !l
  | None -> Hashtbl.replace slowdowns key (ref [ x ])

(* Spans of calls that run guest code: their host time and the guest
   instructions they retire give guest_minsn_per_s. *)
let run_spans =
  [ "vm.native"; "dbt.null"; "dbt.jasan-hybrid"; "dbt.jasan-dyn";
    "dbt.jcfi-hybrid"; "emit.run"; "fuzz.native"; "fuzz.valgrind";
    "fuzz.retrowrite"; "fuzz.lockdown"; "fuzz.bincfi" ]

(* Spans from [compute] through encoded rule files: static_kinsn_per_s. *)
let analysis_spans =
  [ "analysis.compute"; "analysis.vsa"; "cfg.domtree"; "analysis.defuse";
    "analysis.cpa"; "cfg.callgraph"; "analysis.summaries"; "jasan.static";
    "jcfi.static" ]

let layers =
  [ "bench"; "janitizer"; "jt_cfg"; "jt_analysis"; "jt_jasan"; "jt_jcfi";
    "jt_ir"; "jt_vm"; "jt_dbt"; "jt_emit"; "jt_fuzz"; "jt_baselines" ]

let run_call ~layer name insns f =
  let v = Span.time ~layer name f in
  addi "guest_insns" (insns v);
  v

let outcome_insns (o : Driver.outcome) = o.o_result.r_icount

let native_call name insns f =
  let w0 = Gc.minor_words () in
  let v = run_call ~layer:"jt_vm" name insns f in
  add "vm.native_words" (Gc.minor_words () -. w0);
  addi "vm.native_insns" (insns v);
  v

(* ---- the six schemes every workload runs ---- *)

type scheme = Native | Null | Jasan_hybrid | Jasan_dyn | Jcfi_hybrid | Jasan_emitted

let schemes = [ Native; Null; Jasan_hybrid; Jasan_dyn; Jcfi_hybrid; Jasan_emitted ]

let scheme_name = function
  | Native -> "native"
  | Null -> "null"
  | Jasan_hybrid -> "jasan-hybrid"
  | Jasan_dyn -> "jasan-dyn"
  | Jcfi_hybrid -> "jcfi-hybrid"
  | Jasan_emitted -> "jasan-emitted"

let run_native rf ~registry ~main =
  let o =
    native_call "vm.native" outcome_insns (fun () ->
        Driver.run_native ~registry ~main ())
  in
  observe rf o.o_result;
  same_icount rf o.o_result;
  if o.o_result.r_cycles <> rf.rf_cycles then
    fail "native cycles differ from the reference"

(* A run under the DBT: native's observables and icount. *)
let translated scheme rf (o : Driver.outcome) =
  Option.iter
    (fun (s : Jt_dbt.Dbt.stats) ->
      addi "dbt.blocks_translated" (s.st_blocks_static + s.st_blocks_dynamic);
      addi "dbt.block_execs" s.st_block_execs;
      addi "dbt.fastpath" (s.st_chain_hits + s.st_ibl_hits + s.st_trace_interior);
      addi "dbt.traces_built" s.st_traces_built)
    o.o_dbt;
  addi "dbt.cycles" o.o_result.r_cycles;
  observe rf o.o_result;
  same_icount rf o.o_result;
  slowdown
    (String.map (function '-' -> '_' | c -> c) (scheme_name scheme))
    rf o.o_result

let dbt_call scheme f =
  run_call ~layer:"jt_dbt" ("dbt." ^ scheme_name scheme) outcome_insns f

let run_null rf ~registry ~main =
  translated Null rf
    (dbt_call Null (fun () -> Driver.run_null ~registry ~main ()))

let run_jasan_dyn rf ~registry ~main =
  let tool, _ = Jt_jasan.Jasan.create () in
  translated Jasan_dyn rf
    (dbt_call Jasan_dyn (fun () ->
         Driver.run ~hybrid:false ~tool ~registry ~main ()))

(* A hybrid run handed the rules of every static module, so Driver.run
   analyzes nothing itself. *)
let run_hybrid scheme ~tool ~rules rf ~registry ~main =
  let o =
    dbt_call scheme (fun () ->
        Driver.run ~tool ~precomputed:rules ~registry ~main ())
  in
  if scheme = Jasan_hybrid then begin
    let c = Counters.current () in
    addi "jasan.checks" c.c_san_checks;
    addi "jasan.trace_elided"
      (c.c_san_trace_elide_dom + c.c_san_trace_elide_canary
     + c.c_san_trace_elide_streak + c.c_san_trace_elide_ind)
  end;
  translated scheme rf o;
  o

(* ---- analysis and emission ---- *)

(* Cold analysis of one module: compute, each lazy pass forced in its
   own span, then each tool's static pass through to its encoded rule
   file.  Returns the analysis and, per tool tag, the rule file and its
   encoding. *)
let analyze ~tools (m : Jt_obj.Objfile.t) =
  let sa =
    Span.time ~layer:"janitizer" "analysis.compute" (fun () -> Sa.compute m)
  in
  let per_fn layer name force =
    Span.time ~layer name (fun () ->
        List.iter (fun fa -> ignore (force fa)) sa.Sa.sa_fns)
  in
  per_fn "jt_analysis" "analysis.vsa" (fun fa -> Lazy.force fa.Sa.fa_vsa);
  per_fn "jt_cfg" "cfg.domtree" (fun fa -> Lazy.force fa.Sa.fa_domtree);
  per_fn "jt_analysis" "analysis.defuse" (fun fa -> Lazy.force fa.Sa.fa_defuse);
  let whole layer name l =
    Span.time ~layer name (fun () -> ignore (Lazy.force l))
  in
  whole "jt_analysis" "analysis.cpa" sa.Sa.sa_cpa;
  whole "jt_cfg" "cfg.callgraph" sa.Sa.sa_callgraph;
  whole "jt_analysis" "analysis.summaries" sa.Sa.sa_summaries;
  addi "static_insns" (Hashtbl.length sa.Sa.sa_disasm.Jt_disasm.Disasm.insns);
  ( sa,
    List.map
      (fun (tag, (tool : Tool.t)) ->
        let file, bytes =
          Span.time ~layer:("jt_" ^ tag) (tag ^ ".static") (fun () ->
              let f = tool.t_static sa in
              (f, Jt_rules.Rules.encode_file f))
        in
        addi "rules.count" (List.length file.Jt_rules.Rules.rf_rules);
        addi "rules.bytes" (String.length bytes);
        (tag, (file, bytes)))
      tools )

let rules tag files = fst (List.assoc tag files)

(* The libraries a workload links, analyzed once at set-up: a shared
   library's rules are produced once and reused by every program that
   loads it.  Per tool tag, the (module, rule file) list. *)
let lib_rules libs =
  let jasan, _ = Jt_jasan.Jasan.create ()
  and jcfi, _ = Jt_jcfi.Jcfi.create () in
  let files =
    List.map
      (fun (m : Jt_obj.Objfile.t) ->
        (m.name, snd (analyze ~tools:[ ("jasan", jasan); ("jcfi", jcfi) ] m)))
      libs
  in
  List.map
    (fun tag -> (tag, List.map (fun (n, f) -> (n, rules tag f)) files))
    [ "jasan"; "jcfi" ]

(* JASan or JCFI hybrid: analyze the main module, reuse the libraries'
   rules, run. *)
let hybrid scheme (m : Jt_obj.Objfile.t) ~libs rf ~registry =
  let tag, tool =
    match scheme with
    | Jcfi_hybrid -> ("jcfi", fst (Jt_jcfi.Jcfi.create ()))
    | _ -> ("jasan", fst (Jt_jasan.Jasan.create ()))
  in
  let files = snd (analyze ~tools:[ (tag, tool) ] m) in
  run_hybrid scheme ~tool
    ~rules:((m.name, rules tag files) :: List.assoc tag libs)
    rf ~registry ~main:m.name

let emit_tool = Emit.Asan { elide = true }

let emit ?store ~registry ~main () =
  Span.time ~layer:"jt_emit" "emit.program" (fun () ->
      Emit.emit_program ?store ~tool:emit_tool ~registry ~main ())

let code_bytes (m : Jt_obj.Objfile.t) =
  List.fold_left
    (fun a s -> a + Jt_obj.Section.size s)
    0 (Jt_obj.Objfile.code_sections m)

(* Code bytes of the modules the program rewrote, before and after. *)
let emitted_sizes ~registry (p : Emit.program) =
  let find mods name =
    List.find (fun (m : Jt_obj.Objfile.t) -> String.equal m.name name) mods
  in
  List.iter
    (fun name ->
      addi "emit.orig_bytes"
        (code_bytes (find (registry @ [ Jt_loader.Loader.ld_so ]) name));
      addi "emit.new_bytes" (code_bytes (find p.p_registry name)))
    p.p_emitted

(* [--corrupt identity] (self-test only) breaks the emitted accounting
   identity. *)
let run_emitted rf (p : Emit.program) =
  let ro =
    run_call ~layer:"jt_emit" "emit.run"
      (fun (ro : Emit.run_outcome) -> ro.ro_outcome.o_result.r_icount)
      (fun () -> Emit.run p)
  in
  let r = ro.ro_outcome.o_result in
  let pins = if !corrupt = "identity" then ro.ro_pins + 1 else ro.ro_pins in
  observe rf r;
  if r.r_icount - ro.ro_sites - pins <> rf.rf_icount then
    fail "emitted icount - sites - pins differs from native icount";
  addi "emit.sites_executed" ro.ro_sites;
  slowdown "jasan_emitted" rf r;
  ro

(* ---- workloads ----

   A workload yields rounds: lists of named ops in seed order.  Round 0
   comes from set-up; later rounds are generated between rounds, outside
   every op and round timer. *)

type workload = {
  setup : unit -> (string * (unit -> unit)) list;
  next_round : int -> (string * (unit -> unit)) list;
  finish : unit -> unit;  (** report lines and clean-up, after timing *)
}

let rng_for round = Fuzz.Rng.make ((!seed * 1_000_003) + round)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Fuzz.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let gen_build f = Span.time ~layer:"jt_workloads" "gen.build" f
let gen_native f = Span.time ~layer:"jt_vm" "gen.native" f

(* spec-sweep: the 28 registry workloads under the six schemes, 168 ops a
   round in seed order.  Guest execution dominates host time. *)
let spec () =
  let items = ref [] and libs = ref [] in
  (* slowdowns of the C workloads, for the check against BENCH_emit.json *)
  let c_emitted = Hashtbl.create 16 and c_hybrid = Hashtbl.create 16 in
  let op (s : Sheet.t) (w : Specgen.t) rf scheme () =
    let registry = w.w_registry and main = s.s_name in
    let ratio (r : Vm.result) =
      float_of_int r.r_cycles /. float_of_int rf.rf_cycles
    in
    match scheme with
    | Native -> run_native rf ~registry ~main
    | Null -> run_null rf ~registry ~main
    | Jasan_dyn -> run_jasan_dyn rf ~registry ~main
    | Jasan_hybrid | Jcfi_hybrid ->
      let o = hybrid scheme w.w_main ~libs:!libs rf ~registry in
      if scheme = Jasan_hybrid && s.s_lang = Sheet.C then
        Hashtbl.replace c_hybrid main (ratio o.o_result)
    | Jasan_emitted -> (
      match (emit ~registry ~main (), s.s_lang) with
      | Ok p, Sheet.C ->
        emitted_sizes ~registry p;
        let ro = run_emitted rf p in
        Hashtbl.replace c_emitted main (ratio ro.ro_outcome.o_result)
      | Ok _, _ -> fail "emitted where a feature refusal was expected"
      | Error (_, Emit.Unsupported_feature _), lang when lang <> Sheet.C ->
        addi "emit.refusals" 1
      | Error (m, r), _ ->
        fail
          (Printf.sprintf "emission refused in %s: %s" m
             (Emit.refusal_to_string r)))
  in
  let ops_of round =
    List.concat_map
      (fun (s, w, rf) -> List.map (fun sc -> (s, w, rf, sc)) schemes)
      !items
    |> shuffle (rng_for round)
    |> List.map (fun ((s : Sheet.t), w, rf, sc) ->
           (s.s_name ^ "/" ^ scheme_name sc, op s w rf sc))
  in
  {
    setup =
      (fun () ->
        libs := lib_rules (Jt_loader.Loader.ld_so :: Stdlibs.all);
        items :=
          List.map
            (fun (s : Sheet.t) ->
              let w = gen_build (fun () -> Specgen.build s) in
              (s, w, reference_of (gen_native (fun () -> Specgen.run_native w))))
            Sheet.all;
        ops_of 0);
    next_round = ops_of;
    finish =
      (fun () ->
        let names = Hashtbl.fold (fun k _ acc -> k :: acc) c_emitted [] in
        let geo tbl =
          Jt_metrics.Metrics.geomean (List.filter_map (Hashtbl.find_opt tbl) names)
        in
        Printf.printf
          "perfbench: emittable C workloads %d, geomean slowdown emitted \
           %.4fx, hybrid %.4fx\n"
          (List.length names) (geo c_emitted) (geo c_hybrid));
  }

(* cold-code: each round, one module per rung of [cold_ladder]: a
   registry C sheet with [s_units = 1] and [s_code_bloat] raised, so the
   code is large and runs about once.  Sizes are fixed, so every seed
   does the same work; the seed names the modules (which sets their code
   constants and digests) and orders the ops.  Static analysis, IR and
   emission dominate host time. *)
let cold_ladder =
  [ ("gcc", 150); ("sjeng", 300); ("gobmk", 450); ("h264ref", 600);
    ("perlbench", 800) ]

let cold () =
  let dir =
    Filename.concat out_dir (Printf.sprintf "store-%d" (Unix.getpid ()))
  in
  let store = Jt_ir.Store.create ~capacity:0 ~dir () in
  let libs = [ Stdlibs.libc; Stdlibs.libm; Jt_loader.Loader.ld_so ] in
  let lib = ref [] in
  let op (s : Sheet.t) (w : Specgen.t) rf () =
    let m = w.w_main and registry = w.w_registry and main = s.s_name in
    let jasan, _ = Jt_jasan.Jasan.create ()
    and jcfi, _ = Jt_jcfi.Jcfi.create () in
    let sa, files = analyze ~tools:[ ("jasan", jasan); ("jcfi", jcfi) ] m in
    let ir =
      Span.time ~layer:"jt_ir" "ir.encode" (fun () ->
          Jt_ir.Ir.encode (Sa.to_ir sa))
    in
    addi "ir.bytes" (String.length ir);
    addi "ir.insns" (Hashtbl.length sa.sa_disasm.insns);
    let decoded =
      Span.time ~layer:"jt_ir" "ir.decode" (fun () -> Jt_ir.Ir.decode ir)
    in
    Span.time ~layer:"jt_ir" "ir.store_put" (fun () ->
        ignore
          (Jt_ir.Store.find_or_compute store ~digest:(Jt_obj.Objfile.digest m)
             ~name:main (fun () -> decoded)));
    let warm =
      Span.time ~layer:"jt_ir" "ir.store_warm" (fun () ->
          let tool, _ = Jt_jasan.Jasan.create () in
          Jt_rules.Rules.encode_file (tool.t_static (Sa.analyze ~store m)))
    in
    if warm <> snd (List.assoc "jasan" files) then
      fail "warm rules differ from cold rules";
    match emit ~store ~registry ~main () with
    | Error (mn, r) ->
      fail
        (Printf.sprintf "emission refused in %s: %s" mn
           (Emit.refusal_to_string r))
    | Ok p ->
      emitted_sizes ~registry p;
      let with_main tag = (main, rules tag files) :: List.assoc tag !lib in
      run_native rf ~registry ~main;
      run_null rf ~registry ~main;
      ignore
        (run_hybrid Jasan_hybrid ~tool:jasan ~rules:(with_main "jasan") rf
           ~registry ~main);
      run_jasan_dyn rf ~registry ~main;
      ignore
        (run_hybrid Jcfi_hybrid ~tool:jcfi ~rules:(with_main "jcfi") rf
           ~registry ~main);
      ignore (run_emitted rf p)
  in
  let ops_of round =
    List.mapi
      (fun k (base, bloat) ->
        let s =
          {
            (Sheet.find base) with
            Sheet.s_name = Printf.sprintf "%s_cold_%d_%d_%d" base !seed round k;
            s_code_bloat = bloat;
            s_units = 1;
          }
        in
        let w = gen_build (fun () -> Specgen.build s) in
        (s, w, reference_of (gen_native (fun () -> Specgen.run_native w))))
      cold_ladder
    |> shuffle (rng_for round)
    |> List.map (fun ((s : Sheet.t), w, rf) -> (s.s_name, op s w rf))
  in
  {
    setup =
      (fun () ->
        ignore (Jt_ir.Store.clear store);
        List.iter (fun m -> ignore (Sa.analyze ~store m)) libs;
        lib := lib_rules libs;
        ops_of 0);
    next_round = ops_of;
    finish =
      (fun () ->
        ignore (Jt_ir.Store.clear store);
        try Sys.rmdir dir with Sys_error _ -> ());
  }

let kinds (r : Vm.result) =
  List.sort_uniq compare
    (List.map (fun (v : Vm.violation) -> v.v_kind) r.r_violations)

let vset (r : Vm.result) =
  List.sort_uniq compare
    (List.map (fun (v : Vm.violation) -> (v.v_kind, v.v_addr)) r.r_violations)

(* Fuzz's own oracle (as in Fuzz.run_suite), applied to one case. *)
let judge (c : Fuzz.case) rf results =
  let clean = not !op_failed in
  List.iter
    (fun (sc, det) ->
      let name = Fuzz.scheme_name sc in
      match (det, Fuzz.expected c sc) with
      | Fuzz.Refused _, Fuzz.Expect_refusal -> ()
      | Fuzz.Refused why, Fuzz.Expect_kinds _ ->
        fail (name ^ ": unexpected refusal: " ^ why)
      | Fuzz.Ran _, Fuzz.Expect_refusal ->
        fail (name ^ ": ran where a refusal was expected")
      | Fuzz.Ran (r, accounting), Fuzz.Expect_kinds expected ->
        if kinds r <> expected then
          fail (name ^ ": violation kinds differ from Fuzz.expected");
        observe rf r;
        let extra =
          match accounting with Some (sites, pins) -> sites + pins | None -> 0
        in
        if r.r_icount - extra <> rf.rf_icount then
          fail (name ^ ": icount differs from native"))
    results;
  (match (List.assoc Fuzz.Hybrid results, List.assoc Fuzz.Emitted results) with
  | Fuzz.Ran (h, _), Fuzz.Ran (e, _) ->
    if vset h <> vset e then fail "hybrid and emitted violation sets differ"
  | _ -> ());
  if clean && !op_failed then addi "fuzz.mismatches" 1

(* fuzz-churn: 168 fresh Fuzz cases a round (28 seeds, each benign plus
   five injections); one op takes a case through the seven Fuzz schemes,
   judged by Fuzz's oracle, then null, JASan dyn-only and JCFI hybrid.
   Per-program fixed costs dominate host time. *)
let fuzz () =
  let lib = ref [] in
  let op (c : Fuzz.case) (m : Jt_obj.Objfile.t) rf () =
    let registry = [ m; Stdlibs.libc ] and main = m.name in
    let insns = function
      | Fuzz.Ran ((r : Vm.result), _) -> r.r_icount
      | Fuzz.Refused _ -> 0
    in
    let run sc =
      let span = "fuzz." ^ Fuzz.scheme_name sc in
      match sc with
      | Fuzz.Native -> native_call span insns (fun () -> Fuzz.run_scheme sc m)
      | Fuzz.Hybrid ->
        Span.time ~layer:"jt_fuzz" span (fun () ->
            let o = hybrid Jasan_hybrid m ~libs:!lib rf ~registry in
            Fuzz.Ran (o.o_result, None))
      | Fuzz.Emitted ->
        Span.time ~layer:"jt_fuzz" span (fun () ->
            match emit ~registry ~main () with
            | Error (mn, _) -> Fuzz.Refused ("emit:" ^ mn)
            | Ok p ->
              emitted_sizes ~registry p;
              let ro = run_emitted rf p in
              Fuzz.Ran (ro.ro_outcome.o_result, Some (ro.ro_sites, ro.ro_pins)))
      | Fuzz.Valgrind | Fuzz.Retrowrite | Fuzz.Lockdown | Fuzz.Bincfi ->
        run_call ~layer:"jt_baselines" span insns (fun () ->
            Fuzz.run_scheme sc m)
    in
    judge c rf (List.map (fun sc -> (sc, run sc)) Fuzz.schemes);
    run_null rf ~registry ~main;
    run_jasan_dyn rf ~registry ~main;
    ignore (hybrid Jcfi_hybrid m ~libs:!lib rf ~registry)
  in
  let ops_of round =
    Fuzz.cases_of ~base_seed:((((!seed * 1000) + round) * 28) + 1) ~seeds:28
    |> List.map (fun c ->
           let m = gen_build (fun () -> Fuzz.build c) in
           match gen_native (fun () -> Fuzz.run_scheme Fuzz.Native m) with
           | Fuzz.Ran (r, _) -> (c, m, reference_of r)
           | Fuzz.Refused why -> failwith ("native run refused: " ^ why))
    |> shuffle (rng_for round)
    |> List.map (fun (c, m, rf) -> (Fuzz.case_name c, op c m rf))
  in
  {
    setup =
      (fun () ->
        lib := lib_rules [ Stdlibs.libc; Jt_loader.Loader.ld_so ];
        ops_of 0);
    next_round = ops_of;
    finish = ignore;
  }

(* ---- measurement ---- *)

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = percentile 50.0 xs

(* Top of the major heap; this process runs one workload only. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Host cost of one Jt_trace event, the unit the DBT emits per block. *)
let calibrate_events n =
  Trace.enable ~capacity:4096 ();
  let t0 = Span.now () in
  for pc = 1 to n do
    Trace.emit (Trace.Block_exec { pc })
  done;
  let per = (Span.now () -. t0) /. float_of_int n in
  Trace.disable ();
  per

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME spec-sweep, cold-code or fuzz-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window (0: one round)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--corrupt", Arg.Set_string corrupt, "output|identity break the oracle (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let w =
    match !workload with
    | "spec-sweep" -> spec ()
    | "cold-code" -> cold ()
    | "fuzz-churn" -> fuzz ()
    | other ->
      Printf.eprintf "perfbench: unknown workload %S\n" other;
      exit 2
  in
  let traced = !trace = 1 in
  (* Set-up runs at least three times and for at least two seconds, so
     its median rests on more than a blip of this box's speed. *)
  Span.start_probes ();
  let setup_mark = Span.probe_mark () in
  let setup_times = ref [] and round0 = ref [] and reps = ref 0 in
  while
    !reps < 3 || (List.fold_left ( +. ) 0.0 !setup_times < 2.0 && !reps < 80)
  do
    let mark = Span.probe_mark () and t0 = Span.now () in
    round0 := w.setup ();
    setup_times := Span.busy_since t0 mark :: !setup_times;
    incr reps
  done;
  let setup_slow = Span.slowness_since setup_mark in
  let setup_s = median !setup_times /. setup_slow in
  let gen_build_s = Span.total "gen.build" /. float_of_int !reps /. setup_slow in
  Hashtbl.reset Span.totals;
  Hashtbl.reset counts;
  Hashtbl.reset slowdowns;
  let c_span = if traced then Span.calibrate 100_000 else 0.0 in
  let c_event = if traced then calibrate_events 100_000 else 0.0 in
  if traced then begin
    Span.recording := true;
    Trace.enable ~capacity:4096 ()
  end;
  let gc0 = Gc.quick_stat () in
  let timed_mark = Span.probe_mark () in
  let t_start = Span.now () in
  (* per round: op-latency percentiles and round time; each op latency is
     divided by the box's slowness during the op, or during the round
     when the op was too short to measure it *)
  let rounds = ref 0 and round_times = ref [] and round_walls = ref [] in
  let p50s = ref [] and p90s = ref [] in
  let run_round ops =
    let mark = Span.probe_mark () in
    let t0 = Span.now () and round_lat = ref [] in
    List.iter
      (fun (name, f) ->
        incr attempted;
        op_failed := false;
        op_name := name;
        let op =
          Span.op (fun () ->
              try f () with e -> fail ("exception " ^ Printexc.to_string e))
        in
        round_lat := op :: !round_lat)
      ops;
    let slow = Span.slowness_since mark in
    let lat =
      List.map (fun (dt, s) -> dt /. Option.value ~default:slow s) !round_lat
    in
    p50s := percentile 50.0 lat :: !p50s;
    p90s := percentile 90.0 lat :: !p90s;
    round_times := List.fold_left ( +. ) 0.0 lat :: !round_times;
    round_walls := (Span.now () -. t0) :: !round_walls;
    incr rounds
  in
  run_round !round0;
  round0 := [];
  while Span.now () -. t_start < float_of_int !seconds do
    Span.recording := false;
    let ops = w.next_round !rounds in
    Span.recording := traced;
    run_round ops
  done;
  let gc1 = Gc.quick_stat () in
  let k = Span.slowness_since timed_mark in
  Span.stop_probes ();
  let events = if traced then Trace.emitted () else 0 in
  let phases = if traced then Trace.phase_totals () else [] in
  Span.recording := false;
  if traced then Trace.disable ();
  w.finish ();
  let n_rounds = float_of_int !rounds in
  let per_round x = x /. n_rounds in
  let div a b = if b > 0.0 then a /. b else 0.0 in
  let sum names = List.fold_left (fun a n -> a +. Span.total n) 0.0 names in
  let timed = List.fold_left ( +. ) 0.0 !round_walls in
  let geo key =
    match Hashtbl.find_opt slowdowns key with
    | Some l -> Jt_metrics.Metrics.geomean !l
    | None -> 0.0
  in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("wall_s", per_round (List.fold_left ( +. ) 0.0 !round_times), "s");
      ("guest_minsn_per_s", k *. div (get "guest_insns") (sum run_spans) /. 1e6, "Minsn/s");
      ("static_kinsn_per_s", k *. div (get "static_insns") (sum analysis_spans) /. 1e3, "kinsn/s");
      ("op_ms_p50", 1e3 *. median !p50s, "ms");
      ("op_ms_p90", 1e3 *. median !p90s, "ms");
      ("peak_heap_mb", peak_heap_mb (), "MiB");
      ("slowdown_null_geo", geo "null", "x");
      ("slowdown_jasan_hybrid_geo", geo "jasan_hybrid", "x");
      ("slowdown_jasan_dyn_geo", geo "jasan_dyn", "x");
      ("slowdown_jcfi_hybrid_geo", geo "jcfi_hybrid", "x");
      ("slowdown_jasan_emitted_geo", geo "jasan_emitted", "x");
      ("emitted_size_ratio", div (get "emit.new_bytes") (get "emit.orig_bytes"), "x");
    ]
  in
  let spans = List.rev !Span.recorded in
  let selfs = Span.self_times spans in
  let accounted = List.fold_left (fun a (_, st) -> a +. st) 0.0 selfs in
  let self_of layer =
    List.fold_left
      (fun a ((s : Span.t), st) -> if s.layer = layer then a +. st else a)
      0.0 selfs
  in
  let trace_ok =
    (not traced)
    ||
    let path =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
    in
    Span.dump path spans;
    let dumped = Span.count_lines path in
    let orphans = List.length (Span.orphans spans) in
    let share = div accounted timed in
    Printf.printf
      "perfbench: trace spans=%d dumped=%d orphans=%d self-time share of \
       traced wall=%.4f (limit 1 +- 0.05) file=%s\n"
      (List.length spans) dumped orphans share path;
    dumped = List.length spans && orphans = 0 && abs_float (1.0 -. share) <= 0.05
  in
  let phase p f =
    List.fold_left
      (fun a (ps : Trace.phase_summary) -> if ps.ps_phase = p then a +. f ps else a)
      0.0 phases
  in
  let host (ps : Trace.phase_summary) = ps.ps_host_s in
  let cycles (ps : Trace.phase_summary) = float_of_int ps.ps_cycles in
  let s name = per_round (Span.total name) /. k in
  let count name = per_round (get name) in
  let native_s = Span.total "vm.native" +. Span.total "fuzz.native" in
  let elided = get "jasan.trace_elided" in
  let n_spans = float_of_int (List.length spans) in
  let per_layer =
    [
      ("gen.build_s", gen_build_s, "s");
      ("analysis.compute_s", s "analysis.compute", "s");
      ("analysis.vsa_s", s "analysis.vsa", "s");
      ("analysis.defuse_s", s "analysis.defuse", "s");
      ("analysis.cpa_s", s "analysis.cpa", "s");
      ("analysis.summaries_s", s "analysis.summaries", "s");
      ("cfg.domtree_s", s "cfg.domtree", "s");
      ("cfg.callgraph_s", s "cfg.callgraph", "s");
      ("jasan.static_s", s "jasan.static", "s");
      ("jcfi.static_s", s "jcfi.static", "s");
      ("rules.count", count "rules.count", "count");
      ("rules.bytes", count "rules.bytes", "bytes");
      ("ir.encode_s", s "ir.encode", "s");
      ("ir.decode_s", s "ir.decode", "s");
      ("ir.store_put_s", s "ir.store_put", "s");
      ("ir.store_warm_s", s "ir.store_warm", "s");
      ("ir.bytes_per_insn", div (get "ir.bytes") (get "ir.insns"), "bytes/insn");
      ("vm.native_s", per_round native_s /. k, "s");
      ("vm.minsn_per_s", k *. div (get "vm.native_insns") native_s /. 1e6, "Minsn/s");
      ("vm.minor_words_per_insn", div (get "vm.native_words") (get "vm.native_insns"), "words/insn");
      ("dbt.null_s", s "dbt.null", "s");
      ("dbt.tool_s", per_round (sum [ "dbt.jasan-hybrid"; "dbt.jasan-dyn"; "dbt.jcfi-hybrid" ]) /. k, "s");
      ("dbt.load_s", per_round (phase Trace.Load host) /. k, "s");
      ("dbt.run_s", per_round (phase Trace.Run host) /. k, "s");
      ("dbt.blocks_translated", count "dbt.blocks_translated", "count");
      ("dbt.block_execs", count "dbt.block_execs", "count");
      ("dbt.fastpath_share", div (get "dbt.fastpath") (get "dbt.block_execs"), "ratio");
      ("dbt.traces_built", count "dbt.traces_built", "count");
      ("dbt.translate_cycle_share", div (phase Trace.Rewrite cycles) (get "dbt.cycles"), "ratio");
      ("jasan.checks_executed", count "jasan.checks", "count");
      ("jasan.checks_elided_share", div elided (elided +. get "jasan.checks"), "ratio");
      ("emit.program_s", s "emit.program", "s");
      ("emit.run_s", s "emit.run", "s");
      ("emit.sites_executed", count "emit.sites_executed", "count");
      ("emit.refusals", count "emit.refusals", "count");
    ]
    @ List.map
        (fun sc ->
          let n = "fuzz." ^ Fuzz.scheme_name sc in
          (n ^ "_s", s n, "s"))
        Fuzz.schemes
    @ [
        ("fuzz.mismatches", count "fuzz.mismatches", "count");
        ("gc.minor_words_per_op", div (gc1.minor_words -. gc0.minor_words) (float_of_int !attempted), "words");
        ("gc.major_collections", per_round (float_of_int (gc1.major_collections - gc0.major_collections)), "count");
        ("trace.overhead_share", div ((n_spans *. c_span) +. (float_of_int events *. c_event)) timed, "ratio");
        ("trace.spans", per_round n_spans, "count");
        ("ops.per_round", per_round (float_of_int !attempted), "count");
      ]
    @ List.map
        (fun l ->
          let gap = if l = "bench" then timed -. accounted else 0.0 in
          ("self." ^ l, div (self_of l +. gap) timed, "ratio"))
        layers
  in
  let ok = !failed = 0 && trace_ok in
  Printf.printf
    "perfbench: workload=%s seed=%d trace=%d rounds=%d ops=%d failed=%d \
     fail_share=%.6f set-ups=%d slowness=%.4f probes=%d\n"
    !workload !seed !trace !rounds !attempted !failed
    (div (float_of_int !failed) (float_of_int !attempted))
    !reps k !Span.probe_count;
  let metric (name, v, unit) =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
      (if Float.is_finite v then v else 0.0)
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    ok !attempted !failed
    (String.concat ", " (List.map metric (if traced then per_layer else end_to_end)));
  exit (if ok then 0 else 1)
