(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 6).

     dune exec bench/main.exe                       -- everything
     dune exec bench/main.exe -- fig7               -- one figure
     dune exec bench/main.exe -- --jobs 4 fig7      -- measure workloads in parallel
     dune exec bench/main.exe -- parallel --jobs 4  -- sequential-vs-parallel sweep
     dune exec bench/main.exe -- list               -- available targets

   Absolute numbers come from the simulator's cycle model (lib/vm/cost.ml)
   and are calibrated for shape, not for matching the authors' hardware;
   EXPERIMENTS.md records paper-vs-measured for each figure.

   `--jobs N` runs per-workload measurements as independent jobs on
   [Jt_pool] worker domains.  Parallelism is wall-clock only: the counters
   and trace sinks are domain-local, every job builds its own workload,
   VM and tool instances, and the `parallel` target asserts that the
   parallel sweep's per-workload results are bit-identical to the
   sequential ones. *)

open Jt_workloads

let jobs = ref 1

module Json = Jt_metrics.Json

(* ---- the one bench report ----

   Every gated target ends in one [report], and [write_report] is the
   only code that writes a BENCH_<target>.json (dashes in the target
   become underscores), prints it, names each failure on stderr as
   `!! <target>: <failure>` and exits 1 when there is any.  The document
   starts with "target", "gate" and "failures" ([] exactly when the gate
   passes), then the target's own [fields]. *)

type report = {
  target : string;
  gate : string;  (** one line: what must hold for the target to pass *)
  fields : (string * Json.t) list;
  failures : string list;
}

let write_report r =
  let text =
    Json.(
      to_string
        (Obj
           (("target", String r.target) :: ("gate", String r.gate)
           :: ("failures", List (List.map (fun f -> String f) r.failures))
           :: r.fields)))
    ^ "\n"
  in
  let file =
    "BENCH_" ^ String.map (function '-' -> '_' | c -> c) r.target ^ ".json"
  in
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  print_string text;
  List.iter (Printf.eprintf "!! %s: %s\n%!" r.target) r.failures;
  if r.failures <> [] then exit 1

(* Status, output and the (kind, addr) violation set: what the
   differential gates compare between runs that may legitimately differ
   in instruction count, cycles or the pc a violation is reported at. *)
let same_behaviour (a : Jt_vm.Vm.result) (b : Jt_vm.Vm.result) =
  let vset (r : Jt_vm.Vm.result) =
    List.sort_uniq compare
      (List.map (fun (v : Jt_vm.Vm.violation) -> (v.v_kind, v.v_addr)) r.r_violations)
  in
  a.r_status = b.r_status && a.r_output = b.r_output && vset a = vset b

(* ---- the figure sweep: every workload under the scheme table ---- *)

module Scheme = Jt_schemes.Scheme

(* A sweep run: a scheme, or one of two tool-option ablations of a
   scheme (Figures 8 and 11), which run the driver directly. *)
type entry = S of Scheme.t | Jasan_base | Jcfi_forward

let entry_name = function
  | S sc -> Scheme.name sc
  | Jasan_base -> "jasan-base"
  | Jcfi_forward -> "jcfi-forward"

(* Run order, which is also the order of the report's "cycles". *)
let entries =
  [ S Null; S (Jasan Hybrid); Jasan_base; S (Jasan Dyn); S Valgrind; S Retrowrite;
    S (Jcfi Hybrid); S (Jcfi Dyn); Jcfi_forward; S (Lockdown Strong);
    S (Lockdown Weak); S Bincfi ]

type bench_runs = {
  b_sheet : Sheet.t;
  b_runs : (entry * (Jt_metrics.Metrics.cell * Scheme.outcome option)) list;
      (** per entry: slowdown vs native, and the scheme's outcome if it ran *)
  b_sair_jcfi : float;
  b_sair_bincfi : Jt_metrics.Metrics.cell;
  b_cycles : (string * int) list;
      (** simulated cycles of native and of every scheme that ran, in
          run order; RetroWrite runs against its own PIC native *)
}

let ratio c n = float_of_int c /. float_of_int n
let value x = Jt_metrics.Metrics.Value x
let count n = value (float_of_int n)

(* The full measurement of one workload, safe to run as a pool job
   (everything it touches is job-local).  Also returns the schemes whose
   output or exit status diverged from native. *)
let measure (s : Sheet.t) =
  Printf.eprintf "  measuring %s...\n%!" s.s_name;
  let w = Specgen.build s in
  let main = s.s_name in
  let native = Specgen.run_native w in
  let diverged = ref [] and cycles = ref [ ("native", native.r_cycles) ] in
  let check_behaviour ~base label (r : Jt_vm.Vm.result) =
    if r.r_output <> base.Jt_vm.Vm.r_output || r.r_status <> base.r_status then
      diverged := label :: !diverged
  in
  let check_out ?(base = native) label (r : Jt_vm.Vm.result) =
    cycles := (label, r.r_cycles) :: !cycles;
    check_behaviour ~base label r;
    value (ratio r.r_cycles base.r_cycles)
  in
  let ablate label tool =
    let o = Janitizer.Driver.run ~tool ~registry:w.w_registry ~main () in
    (check_out label o.o_result, None)
  in
  let run e =
    let label = entry_name e in
    ( e,
      match e with
      | Jasan_base ->
        ablate label (fst (Jt_jasan.Jasan.create ~liveness:Jt_jasan.Jasan.Live_none ()))
      | Jcfi_forward ->
        ablate label
          (fst (Jt_jcfi.Jcfi.create ~config:{ cf_forward = true; cf_backward = false } ()))
      | S (Lockdown _) when s.s_fails_lockdown ->
        (Jt_metrics.Metrics.Fail "crash (as in the original paper)", None)
      | S sc -> (
        (* RetroWrite gets the PIC build it requires (the original
           paper's setup); its slowdown is measured against the PIC
           native run. *)
        let pic = sc = Retrowrite in
        let w = if pic then Specgen.build ~kind:Jt_obj.Objfile.Exec_pic s else w in
        match Scheme.run sc ~registry:w.w_registry ~main with
        | Error r -> (Jt_metrics.Metrics.Fail (Scheme.refusal_to_string r), None)
        | Ok o ->
          let base =
            if pic then begin
              let np = Specgen.run_native w in
              cycles := ("native-pic", np.r_cycles) :: !cycles;
              np
            end
            else native
          in
          (* the weak Lockdown policy runs for its AIR (Figure 12): it
             must behave like native, but its cycles are no figure's *)
          ( (if sc = Lockdown Weak then begin
               check_behaviour ~base label o.so_run.o_result;
               Jt_metrics.Metrics.Fail "-"
             end
             else check_out ~base label o.so_run.o_result),
            Some o )) )
  in
  let runs = List.map run entries in
  let registry = w.w_registry in
  let closure = Janitizer.Driver.static_closure ~registry ~main in
  let sair_bincfi =
    match Jt_baselines.Bincfi.applicability ~registry ~main with
    | None -> value (Jt_baselines.Bincfi.static_air closure)
    | Some (Jt_baselines.Bincfi.Broken_rewrite m) ->
      Jt_metrics.Metrics.Fail ("broken rewrite: " ^ m)
  in
  ( {
      b_sheet = s;
      b_runs = runs;
      b_sair_jcfi = Jt_jcfi.Air.static_jcfi closure;
      b_sair_bincfi = sair_bincfi;
      b_cycles = List.rev !cycles;
    },
    List.rev !diverged )

let slowdown r e = fst (List.assoc e r.b_runs)

let dair r e =
  match snd (List.assoc e r.b_runs) with
  | Some { Scheme.so_figure = Dynamic_air a; _ } -> value a
  | _ -> Jt_metrics.Metrics.Fail "-"

let dynfrac r =
  match snd (List.assoc (S (Jasan Hybrid)) r.b_runs) with
  | Some o -> o.so_run.o_dynamic_fraction
  | None -> 0.0

(* The sweep runs once per process, on first use: with [--jobs N] the
   workloads are measured as pool jobs.  Its soundness gate is the
   "sweep" report, written before the first figure prints. *)
let sweep =
  lazy
    (let runs =
       if !jobs > 1 then Jt_pool.Pool.run ~jobs:!jobs measure Sheet.all
       else List.map measure Sheet.all
     in
     let name r = r.b_sheet.Sheet.s_name in
     (* A figure cell in the report: a refused or crashed scheme is null. *)
     let cells =
       List.map (fun (k, c) ->
           (k, match c with Jt_metrics.Metrics.Value x -> Json.Float (6, x) | Fail _ -> Json.Null))
     in
     write_report
       {
         target = "sweep";
         gate = "every scheme's output and exit status match native on every workload";
         fields =
           [ ( "workloads",
               Json.(
                 List
                   (List.map
                      (fun (r, d) ->
                        Obj
                          [ ("name", String (name r));
                            ("diverged", List (List.map (fun x -> String x) d));
                            ( "cycles",
                              Obj (List.map (fun (k, c) -> (k, Int c)) r.b_cycles) );
                            (* Figures 12 and 13 *)
                            ( "dynamic_air",
                              Obj
                                (cells
                                   (List.map
                                      (fun e -> (entry_name e, dair r e))
                                      [ S (Lockdown Strong); S (Lockdown Weak);
                                        S (Jcfi Dyn); S (Jcfi Hybrid) ])) );
                            ( "static_air",
                              Obj
                                (cells
                                   [ ("jcfi", value r.b_sair_jcfi);
                                     ("bincfi", r.b_sair_bincfi) ]) ) ])
                      runs)) ) ];
         failures =
           List.concat_map
             (fun (r, d) -> List.map (Printf.sprintf "%s: %s diverged from native" (name r)) d)
             runs;
       };
     List.map fst runs)

(* ---- figures ---- *)

let open_table title unit cols rows =
  Jt_metrics.Metrics.print
    { Jt_metrics.Metrics.t_title = title; t_unit = unit; t_cols = cols; t_rows = rows }

(* One row per workload of the sweep, [cells] picking the figure's columns. *)
let sweep_table title unit cols cells =
  open_table title unit cols
    (List.map (fun r -> (r.b_sheet.Sheet.s_name, cells r)) (Lazy.force sweep))

let fig7 () =
  sweep_table "Figure 7: JASan overhead on SPEC CPU2006-like workloads"
    "slowdown vs native"
    [ "Valgrind"; "JASan-dyn"; "Retrowrite"; "JASan-hybrid" ]
    (fun r ->
      List.map (slowdown r) [ S Valgrind; S (Jasan Dyn); S Retrowrite; S (Jasan Hybrid) ])

let fig8 () =
  sweep_table "Figure 8: JASan overhead breakdown" "slowdown vs native"
    [ "Null client"; "hybrid(full)"; "hybrid(base)"; "JASan-dyn" ]
    (fun r -> List.map (slowdown r) [ S Null; S (Jasan Hybrid); Jasan_base; S (Jasan Dyn) ])

let fig9 () =
  sweep_table "Figure 9: JCFI overhead vs Lockdown and BinCFI"
    "slowdown vs native"
    [ "Lockdown"; "JCFI-dyn"; "JCFI-hybrid"; "BinCFI" ]
    (fun r ->
      List.map (slowdown r) [ S (Lockdown Strong); S (Jcfi Dyn); S (Jcfi Hybrid); S Bincfi ])

let fig10 () =
  Printf.printf "\n  running 624 Juliet CWE-122 cases x 2 variants x 2 tools...\n%!";
  let j = Juliet.evaluate (Jasan Hybrid) in
  let v = Juliet.evaluate Valgrind in
  Jt_metrics.Metrics.print_kv
    "Figure 10: security properties across 624 Juliet CWE-122 test cases"
    [
      ("", "Valgrind   JASan");
      ( "good: False Positives",
        Printf.sprintf "%9d %7d" v.t_false_pos j.t_false_pos );
      ( "good: True Negatives",
        Printf.sprintf "%9d %7d" v.t_true_neg j.t_true_neg );
      ( "bad:  True Positives",
        Printf.sprintf "%9d %7d" v.t_true_pos j.t_true_pos );
      ( "bad:  False Negatives",
        Printf.sprintf "%9d %7d" v.t_false_neg j.t_false_neg );
    ];
  Printf.printf
    "\n  running sibling families (CWE-124/415/416/121) x 2 variants x 2 tools...\n%!";
  let fam_rows =
    List.concat_map
      (fun fam ->
        let j = Juliet.evaluate_family (Jasan Hybrid) fam in
        let v = Juliet.evaluate_family Valgrind fam in
        [
          ( Printf.sprintf "%s (%d): TP"
              (Juliet.family_name fam)
              (List.length (Juliet.family_cases fam)),
            Printf.sprintf "%9d %7d" v.t_true_pos j.t_true_pos );
          ( Printf.sprintf "%s: FN/FP" (Juliet.family_name fam),
            Printf.sprintf "%5d/%-3d %3d/%-3d" v.t_false_neg v.t_false_pos
              j.t_false_neg j.t_false_pos );
        ])
      Juliet.families
  in
  Jt_metrics.Metrics.print_kv
    "Figure 10 (extended): sibling CWE families, per-family detection"
    (("", "Valgrind   JASan") :: fam_rows)

let fig11 () =
  sweep_table "Figure 11: forward/backward CFI contribution to JCFI overhead"
    "slowdown vs native"
    [ "Null client"; "+Forward CFI"; "+Backward CFI" ]
    (fun r -> List.map (slowdown r) [ S Null; Jcfi_forward; S (Jcfi Hybrid) ])

let fig12 () =
  sweep_table "Figure 12: dynamic average indirect-target reduction (DAIR)"
    "% (higher is better)"
    [ "Lockdown(S)"; "JCFI-dyn"; "JCFI-hybrid"; "Lockdown(W)" ]
    (fun r ->
      List.map (dair r) [ S (Lockdown Strong); S (Jcfi Dyn); S (Jcfi Hybrid); S (Lockdown Weak) ])

let fig13 () =
  sweep_table "Figure 13: static average indirect-target reduction (AIR)"
    "% (higher is better)" [ "JCFI"; "BinCFI" ]
    (fun r -> [ value r.b_sair_jcfi; r.b_sair_bincfi ])

let fig14 () =
  sweep_table "Figure 14: basic blocks only discovered by the dynamic modifier"
    "% of executed unique blocks" [ "dynamic code" ]
    (fun r -> [ value (100.0 *. dynfrac r) ]);
  let runs = Lazy.force sweep in
  let mean =
    List.fold_left (fun acc r -> acc +. dynfrac r) 0.0 runs
    /. float_of_int (List.length runs)
  in
  Printf.printf "arith. mean: %.2f%%\n" (100.0 *. mean)

(* ---- ablation: the static-pass design choices DESIGN.md calls out ---- *)

let ablation () =
  let subset = [ "bzip2"; "perlbench"; "hmmer"; "gobmk"; "milc"; "soplex" ] in
  let configs =
    [
      ("full", fun () -> fst (Jt_jasan.Jasan.create ()));
      ("no SCEV hoisting", fun () -> fst (Jt_jasan.Jasan.create ~hoist_scev:false ()));
      ( "no frame-skip",
        fun () -> fst (Jt_jasan.Jasan.create ~skip_frame_accesses:false ()) );
      ( "no liveness",
        fun () -> fst (Jt_jasan.Jasan.create ~liveness:Jt_jasan.Jasan.Live_none ()) );
      ( "clean calls",
        fun () -> fst (Jt_jasan.Jasan.create ~clean_calls:true ()) );
    ]
  in
  let rows =
    List.map
      (fun name ->
        let s = Sheet.find name in
        let w = Specgen.build s in
        let native = Specgen.run_native w in
        ( name,
          List.map
            (fun (_, mk) ->
              let o =
                Janitizer.Driver.run ~tool:(mk ()) ~registry:w.w_registry
                  ~main:name ()
              in
              value (ratio o.o_result.r_cycles native.r_cycles))
            configs ))
      subset
  in
  open_table "Ablation: JASan static-pass optimizations (subset)"
    "slowdown vs native" (List.map fst configs) rows;
  (* Canary analysis is a soundness requirement, not an optimization:
     once frame accesses are instrumented (as RetroWrite-class tools and
     the dynamic fallback must), the epilogue's own canary read trips the
     poison unless canary analysis exempts it. *)
  let w = Specgen.build (Sheet.find "gobmk") in
  let run_cfg ~exempt =
    let tool =
      fst
        (Jt_jasan.Jasan.create ~skip_frame_accesses:false ~exempt_canary:exempt ())
    in
    let o = Janitizer.Driver.run ~tool ~registry:w.w_registry ~main:"gobmk" () in
    List.length o.o_result.r_violations
  in
  Printf.printf
    "\ncanary-analysis necessity (frame accesses instrumented): %d false\n\
     violations on gobmk without the exemption, %d with it\n"
    (run_cfg ~exempt:false) (run_cfg ~exempt:true)

(* ---- dispatch microbenchmark: fast paths and the engine's host tax ----

   Runs every registry workload under the null-client DBT in three
   configurations — full fast paths (chain+IBL+traces), chain-only and
   fully unchained — and checks that observable program behavior
   (status, output, instruction count, violations) is bit-identical
   across all three and that the null DBT's status, output and
   instruction count equal [Vm.run]'s.  Simulated cycles intentionally
   drop with IBL on (that is the modeled win), so cycles are excluded
   from the identity check.

   It also measures the engine tax: the host time of the null DBT over
   [Vm.run] on the same program, as the median of [tax_rounds]
   interleaved [Driver.run_native]/[Driver.run_null] pairs per workload,
   and the geomean of those ratios.  Host time is reported, never gated;
   next to it stand its deterministic proxies from [Dbt.stats], block
   executions, dispatcher entries and trace executions per guest
   instruction, which a dispatch change must leave bit-identical. *)

type dispatch_row = {
  d_name : string;
  d_icount : int;
  d_block_execs : int;
  d_chain_hits : int;
  d_ibl_hits : int;
  d_ibl_misses : int;
  d_traces_built : int;
  d_trace_execs : int;
  d_entries_full : int;
  d_entries_chain_only : int;
  d_entries_unchained : int;
  d_chain_hit_rate : float;  (** chain-only config *)
  d_ibl_hit_rate : float;
  d_chain_ibl_hit_rate : float;  (** transfers that skipped the dispatcher *)
  d_native_s : float;  (** median [Driver.run_native] host seconds *)
  d_null_s : float;  (** median [Driver.run_null] host seconds *)
  d_bit_identical : bool;  (** across the three fast-path configs *)
  d_matches_native : bool;  (** null run's status, output, icount *)
}

let tax_rounds = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let dispatch_rows () =
  let run_one ~chain ~ibl ~trace registry main =
    let vm = Jt_vm.Vm.make ~registry () in
    let engine = Jt_dbt.Dbt.create ~vm ~chain ~ibl ~trace () in
    Jt_vm.Vm.boot vm ~main;
    (* count from a clean slate: nothing before [run] may leak in *)
    Jt_dbt.Dbt.reset_stats engine;
    if vm.Jt_vm.Vm.status = Jt_vm.Vm.Running then Jt_dbt.Dbt.run engine;
    (Jt_vm.Vm.result vm, Jt_dbt.Dbt.stats engine)
  in
  let observable (r : Jt_vm.Vm.result) = { r with r_cycles = 0 } in
  let rate num den =
    if den = 0 then 0.0 else float_of_int num /. float_of_int den
  in
  let timed f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  List.map
    (fun (sheet : Sheet.t) ->
      let name = sheet.s_name in
      Printf.eprintf "  dispatch: %s...\n%!" name;
      let w = Specgen.build sheet in
      let reg = w.Specgen.w_registry in
      let r_full, s_full = run_one ~chain:true ~ibl:true ~trace:true reg name in
      let r_chain, s_chain =
        run_one ~chain:true ~ibl:false ~trace:false reg name
      in
      let r_off, s_off = run_one ~chain:false ~ibl:false ~trace:false reg name in
      (* the entry-accounting identity is asserted by [Dbt.run] itself *)
      let pairs =
        List.init tax_rounds (fun _ ->
            let native, t_native =
              timed (fun () -> Janitizer.Driver.run_native ~registry:reg ~main:name ())
            in
            let null, t_null =
              timed (fun () -> Janitizer.Driver.run_null ~registry:reg ~main:name ())
            in
            (native.o_result, null.o_result, t_native, t_null))
      in
      let native, _, _, _ = List.hd pairs in
      {
        d_name = name;
        d_icount = native.r_icount;
        d_block_execs = s_full.Jt_dbt.Dbt.st_block_execs;
        d_chain_hits = s_full.st_chain_hits;
        d_ibl_hits = s_full.st_ibl_hits;
        d_ibl_misses = s_full.st_ibl_misses;
        d_traces_built = s_full.st_traces_built;
        d_trace_execs = s_full.st_trace_execs;
        d_entries_full = s_full.st_dispatch_entries;
        d_entries_chain_only = s_chain.st_dispatch_entries;
        d_entries_unchained = s_off.st_dispatch_entries;
        d_chain_hit_rate =
          rate s_chain.st_chain_hits
            (s_chain.st_chain_hits + s_chain.st_dispatch_entries);
        d_ibl_hit_rate =
          rate s_full.st_ibl_hits (s_full.st_ibl_hits + s_full.st_ibl_misses);
        d_chain_ibl_hit_rate =
          rate
            (s_full.st_block_execs - s_full.st_dispatch_entries)
            s_full.st_block_execs;
        d_native_s = median (List.map (fun (_, _, t, _) -> t) pairs);
        d_null_s = median (List.map (fun (_, _, _, t) -> t) pairs);
        d_bit_identical =
          observable r_full = observable r_chain
          && observable r_chain = observable r_off;
        d_matches_native =
          List.for_all
            (fun ((n : Jt_vm.Vm.result), (d : Jt_vm.Vm.result), _, _) ->
              n.r_status = d.r_status && n.r_output = d.r_output
              && n.r_icount = d.r_icount)
            pairs;
      })
    Sheet.all

let dispatch () =
  let rows = dispatch_rows () in
  let tax r = r.d_null_s /. max r.d_native_s 1e-9 in
  let per_insn n r = float_of_int n /. float_of_int (max r.d_icount 1) in
  open_table
    "Dispatch microbenchmark: chaining + IBL + traces, and the null DBT's \
     host time over Vm.run"
    "counts / % / ratio"
    [
      "entries(off)"; "entries(chain)"; "entries(full)"; "chain+ibl %";
      "ibl-hit %"; "traces"; "null/native";
    ]
    (List.map
       (fun r ->
         ( r.d_name,
           [ count r.d_entries_unchained; count r.d_entries_chain_only;
             count r.d_entries_full; value (100.0 *. r.d_chain_ibl_hit_rate);
             value (100.0 *. r.d_ibl_hit_rate); count r.d_traces_built;
             value (tax r) ] ))
       rows);
  let geo_tax = Jt_metrics.Metrics.geomean (List.map tax rows) in
  Printf.printf "null DBT / Vm.run host time, geomean over %d workloads: %.3f\n"
    (List.length rows) geo_tax;
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.d_name); ("icount", Int r.d_icount);
          ("block_execs", Int r.d_block_execs);
          ("chain_hits", Int r.d_chain_hits); ("ibl_hits", Int r.d_ibl_hits);
          ("ibl_misses", Int r.d_ibl_misses); ("traces_built", Int r.d_traces_built);
          ("trace_execs", Int r.d_trace_execs);
          ("dispatcher_entries", Int r.d_entries_full);
          ("dispatcher_entries_chain_only", Int r.d_entries_chain_only);
          ("dispatcher_entries_unchained", Int r.d_entries_unchained);
          ("chain_hit_rate", Float (4, r.d_chain_hit_rate));
          ("ibl_hit_rate", Float (4, r.d_ibl_hit_rate));
          ("chain_ibl_hit_rate", Float (4, r.d_chain_ibl_hit_rate));
          ("block_execs_per_insn", Float (4, per_insn r.d_block_execs r));
          ("dispatcher_entries_per_insn", Float (6, per_insn r.d_entries_full r));
          ("trace_execs_per_insn", Float (4, per_insn r.d_trace_execs r));
          ("native_s", Float (4, r.d_native_s));
          ("null_s", Float (4, r.d_null_s));
          ("null_over_native", Float (3, tax r));
          ("bit_identical", Bool r.d_bit_identical);
          ("matches_native", Bool r.d_matches_native) ])
  in
  write_report
    {
      target = "dispatch";
      gate =
        "status, output, icount and violations bit-identical across full, \
         chain-only and unchained fast paths; the null DBT's status, output \
         and icount equal Vm.run's";
      fields =
        [ ("host_rounds", Json.Int tax_rounds);
          ("null_over_native_geo", Json.Float (3, geo_tax));
          ("workloads", Json.List (List.map row_json rows)) ];
      failures =
        List.concat_map
          (fun r ->
            (if r.d_bit_identical then []
             else [ r.d_name ^ " diverged across fast-path configs" ])
            @
            if r.d_matches_native then []
            else [ r.d_name ^ ": null DBT diverged from Vm.run" ])
          rows;
    }

(* ---- shadow microbenchmark: per-byte loop vs page-at-a-time bulk ----

   The "before" series reproduces the pre-optimization implementation
   faithfully: one hash probe and one byte store/load per shadow byte
   (exactly what [Shadow.set]/[Shadow.get] still do, and what
   poison/unpoison used to loop over).  The "after" series uses the bulk
   entry points: page-at-a-time [Bytes.fill] for poisoning and
   whole-page skipping for the clean-scan path. *)

let shadow_bench () =
  let len = 1 lsl 20 (* 1 MiB *) in
  let base = 0x5000_0000 in
  let naive_reps = 4 and bulk_reps = 1000 in
  let time reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    max (Sys.time () -. t0) 1e-9
  in
  let mibs reps dt = float_of_int reps *. (float_of_int len /. dt) /. 1048576.0 in
  let dt_naive_poison =
    time naive_reps (fun () ->
        let s = Jt_jasan.Shadow.create () in
        for i = 0 to len - 1 do
          Jt_jasan.Shadow.set s (base + i) 1
        done)
  in
  let dt_bulk_poison =
    time bulk_reps (fun () ->
        let s = Jt_jasan.Shadow.create () in
        Jt_jasan.Shadow.poison s base ~len Jt_jasan.Shadow.Heap_redzone)
  in
  (* Scan of a clean region — the hot JASan check shape.  The region was
     never poisoned, so its pages do not even exist: the bulk path skips
     them wholesale while the per-byte path probes every address. *)
  let clean = Jt_jasan.Shadow.create () in
  Jt_jasan.Shadow.poison clean (base + len) ~len:1 Jt_jasan.Shadow.Heap_redzone;
  let dt_naive_scan =
    time naive_reps (fun () ->
        for i = 0 to len - 1 do
          if Jt_jasan.Shadow.get clean (base + i) <> 0 then
            failwith "unexpected poison"
        done)
  in
  let dt_bulk_scan =
    time bulk_reps (fun () ->
        if Jt_jasan.Shadow.first_poisoned clean base ~len <> None then
          failwith "unexpected poison")
  in
  (* correctness spot-checks on the bulk paths while we are here *)
  let s = Jt_jasan.Shadow.create () in
  Jt_jasan.Shadow.poison s base ~len Jt_jasan.Shadow.Heap_freed;
  assert (Jt_jasan.Shadow.poisoned_count s = len);
  assert (
    Jt_jasan.Shadow.first_poisoned s (base - 8) ~len:16
    = Some (base, Jt_jasan.Shadow.Heap_freed));
  Jt_jasan.Shadow.unpoison s base ~len;
  assert (Jt_jasan.Shadow.poisoned_count s = 0);
  let line label reps dt dt_base reps_base =
    ( label,
      Printf.sprintf "%10.1f MiB/s  (%.0fx)" (mibs reps dt)
        (mibs reps dt /. mibs reps_base dt_base) )
  in
  Jt_metrics.Metrics.print_kv
    "Shadow microbenchmark: 1 MiB poison / clean-region scan"
    [
      line "poison: per-byte set" naive_reps dt_naive_poison dt_naive_poison
        naive_reps;
      line "poison: bulk fill" bulk_reps dt_bulk_poison dt_naive_poison
        naive_reps;
      line "scan:   per-byte get" naive_reps dt_naive_scan dt_naive_scan
        naive_reps;
      line "scan:   bulk first_poisoned" bulk_reps dt_bulk_scan dt_naive_scan
        naive_reps;
    ]

(* ---- trace-overhead: the jt_trace layer's cost contract ----

   Runs a subset under JASan twice — tracing disabled (the default) and
   tracing enabled — and checks the layer's two promises: (1) tracing is
   host-level observation only, so the simulated results (status, output,
   icount, cycles, violations) are bit-identical and the icount overhead
   is exactly 0% (trivially within the <=5% budget); (2) the enabled path
   stays cheap, reported as a host wall-clock ratio.  Emits
   BENCH_trace_overhead.json and a sample event stream
   (TRACE_sample.jsonl) for CI artifacts. *)

type trace_ov_row = {
  tov_name : string;
  tov_icount : int;
  tov_icount_overhead_pct : float;
  tov_identical : bool;
  tov_events : int;
  tov_dropped : int;
  tov_host_off_s : float;
  tov_host_on_s : float;
  tov_host_ratio : float;
}

let trace_overhead () =
  let subset = [ "bzip2"; "hmmer"; "mcf"; "sjeng" ] in
  let run_once registry main =
    let t0 = Sys.time () in
    let o = Result.get_ok (Scheme.run (Jasan Hybrid) ~registry ~main) in
    (o.so_run.o_result, max (Sys.time () -. t0) 1e-9)
  in
  let rows =
    List.mapi
      (fun i name ->
        Printf.eprintf "  trace-overhead: %s...\n%!" name;
        let w = Specgen.build (Sheet.find name) in
        let reg = w.Specgen.w_registry in
        Jt_trace.Trace.disable ();
        let r_off, dt_off = run_once reg name in
        Jt_trace.Trace.enable ();
        let r_on, dt_on = run_once reg name in
        let events = Jt_trace.Trace.emitted () in
        let dropped = Jt_trace.Trace.dropped () in
        if i = 0 then begin
          let oc = open_out "TRACE_sample.jsonl" in
          Jt_trace.Trace.export oc;
          close_out oc
        end;
        Jt_trace.Trace.disable ();
        Jt_trace.Trace.clear ();
        {
          tov_name = name;
          tov_icount = r_off.Jt_vm.Vm.r_icount;
          tov_icount_overhead_pct =
            100.0
            *. float_of_int (r_on.Jt_vm.Vm.r_icount - r_off.Jt_vm.Vm.r_icount)
            /. float_of_int (max r_off.Jt_vm.Vm.r_icount 1);
          tov_identical = r_off = r_on;
          tov_events = events;
          tov_dropped = dropped;
          tov_host_off_s = dt_off;
          tov_host_on_s = dt_on;
          tov_host_ratio = dt_on /. dt_off;
        })
      subset
  in
  open_table
    "Trace overhead: JASan-hybrid with jt_trace off vs on"
    "icount-overhead % / events / host ratio"
    [ "icount ovh %"; "events"; "dropped"; "host x" ]
    (List.map
       (fun r ->
         ( r.tov_name,
           [ value r.tov_icount_overhead_pct; count r.tov_events;
             count r.tov_dropped; value r.tov_host_ratio ] ))
       rows);
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.tov_name); ("icount", Int r.tov_icount);
          ("icount_overhead_pct", Float (4, r.tov_icount_overhead_pct));
          ("identical", Bool r.tov_identical); ("events", Int r.tov_events);
          ("dropped", Int r.tov_dropped); ("host_off_s", Float (6, r.tov_host_off_s));
          ("host_on_s", Float (6, r.tov_host_on_s));
          ("host_ratio", Float (3, r.tov_host_ratio)) ])
  in
  write_report
    {
      target = "trace-overhead";
      gate = "simulated results bit-identical with tracing on, icount overhead <= 5%";
      fields =
        [ ("budget_icount_pct", Json.Float (1, 5.0));
          ("workloads", Json.List (List.map row_json rows)) ];
      failures =
        List.filter_map
          (fun r ->
            if r.tov_identical && r.tov_icount_overhead_pct <= 5.0 then None
            else
              Some
                (Printf.sprintf "%s %s (icount overhead %.2f%%)" r.tov_name
                   (if r.tov_identical then "over budget"
                    else "diverged with tracing on")
                   r.tov_icount_overhead_pct))
          rows;
    }

(* ---- parallel: sequential-vs-pool wall clock over the full sweep ----

   One job = one workload evaluated under JASan-hybrid (build, static
   pass, simulated run).  The whole 27-workload sweep runs twice: purely
   sequentially on the main domain, then as jobs on a [Jt_pool].  The
   contract asserted here is the tentpole's: parallelism must never
   change what the simulator computes, so every per-workload observable
   (exit status, output, icount, cycles, violations, rule count) is
   bit-identical between the two sweeps; the payoff is wall clock,
   recorded in BENCH_parallel.json. *)

type parallel_row = {
  pr_name : string;
  pr_status : string;
  pr_output : string;
  pr_icount : int;
  pr_cycles : int;
  pr_violations : int;
  pr_rules : int;
}

let parallel_eval (s : Sheet.t) =
  let w = Specgen.build s in
  let o = Result.get_ok (Scheme.run (Jasan Hybrid) ~registry:w.w_registry ~main:s.s_name) in
  let r = o.so_run.o_result in
  {
    pr_name = s.s_name;
    pr_status = Format.asprintf "%a" Jt_vm.Vm.pp_status r.r_status;
    pr_output = r.r_output;
    pr_icount = r.r_icount;
    pr_cycles = r.r_cycles;
    pr_violations = List.length r.r_violations;
    pr_rules = o.so_run.o_rule_count;
  }

let parallel_bench () =
  (* [Sys.time] is process CPU time — it *sums* across domains and would
     hide any speedup — so this target alone measures wall clock. *)
  let wall () = Unix.gettimeofday () in
  let n_jobs = if !jobs > 1 then !jobs else 4 in
  (* Speedup is bounded by the cores the host actually grants; recording
     the count keeps a 1-core CI container's sub-1x number interpretable
     next to a many-core machine's. *)
  let cores = Domain.recommended_domain_count () in
  Printf.eprintf "  parallel: sequential sweep (%d workloads)...\n%!"
    (List.length Sheet.all);
  let t0 = wall () in
  let seq = List.map parallel_eval Sheet.all in
  let seq_s = wall () -. t0 in
  Printf.eprintf "  parallel: pool sweep (--jobs %d)...\n%!" n_jobs;
  let t1 = wall () in
  let par =
    Jt_pool.Pool.run ~jobs:n_jobs parallel_eval Sheet.all
  in
  let par_s = wall () -. t1 in
  (* A 1-core host cannot speed anything up: the pool only adds domain
     scheduling on top of the same serial work, so the measured ratio is
     noise (historically reported as a bogus 0.4x "speedup").  Report
     null with a reason instead of a misleading number, and only gate on
     the ratio when real parallelism was possible. *)
  let speedup =
    if cores < 2 then None else Some (seq_s /. max par_s 1e-9)
  in
  let mismatches =
    List.filter_map
      (fun (a, b) -> if a = b then None else Some a.pr_name)
      (List.combine seq par)
  in
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.pr_name); ("status", String r.pr_status);
          ("icount", Int r.pr_icount); ("cycles", Int r.pr_cycles);
          ("violations", Int r.pr_violations); ("rules", Int r.pr_rules) ])
  in
  (* the bit-identical contract always gates; the wall-clock ratio gates
     only where the host could actually parallelize *)
  let slow = match speedup with Some s -> s < 1.0 | None -> false in
  write_report
    {
      target = "parallel";
      gate =
        "per-workload observables bit-identical between the sequential and \
         pool sweeps; the pool no slower on a multi-core host";
      fields =
        Json.(
          [ ("jobs", Int n_jobs); ("host_cores", Int cores);
            ("sequential_wall_s", Float (3, seq_s));
            ("parallel_wall_s", Float (3, par_s)) ]
          @ (match speedup with
            | Some s -> [ ("speedup", Float (3, s)) ]
            | None -> [ ("speedup", Null); ("speedup_reason", String "single-core host") ])
          @ [ ("bit_identical", Bool (mismatches = []));
              ("workloads", List (List.map row_json seq)) ]);
      failures =
        List.map (fun n -> n ^ " diverged between sweeps") mismatches
        @ if slow then [ "pool sweep slower than sequential" ] else [];
    }

(* ---- bechamel microbenchmarks of the framework's own primitives ---- *)

let micro () =
  let open Bechamel in
  let insn_bytes =
    Bytes.of_string
      (Jt_isa.Encode.encode ~at:0x400000
         (Jt_isa.Insn.Load (Jt_isa.Insn.W4, Jt_isa.Reg.r1, Jt_isa.Insn.mem_base ~disp:16 Jt_isa.Reg.r2)))
  in
  let lim = Bytes.length insn_bytes in
  let decode_test =
    Test.make ~name:"decode one instruction" (Staged.stage (fun () ->
        ignore (Jt_isa.Decode.instr insn_bytes ~pos:0 ~lim ~at:0x400000)))
  in
  let shadow = Jt_jasan.Shadow.create () in
  Jt_jasan.Shadow.poison shadow 0x5000_0000 ~len:16 Jt_jasan.Shadow.Heap_redzone;
  let shadow_test =
    Test.make ~name:"shadow check (4 bytes)" (Staged.stage (fun () ->
        ignore (Jt_jasan.Shadow.first_poisoned shadow 0x5100_0000 ~len:4)))
  in
  let rule_file n =
    {
      Jt_rules.Rules.rf_module = "m";
      rf_digest = "";
      rf_stats = [];
      rf_rules =
        List.init n (fun i ->
            Jt_rules.Rules.make ~id:0x101 ~bb:(0x400000 + (i * 16))
              ~insn:(0x400000 + (i * 16))
              ~data:[ 2; 1 ] ());
    }
  in
  let index = Jt_rules.Rules.index (rule_file 512) in
  let table_test =
    Test.make ~name:"rule-table lookup" (Staged.stage (fun () ->
        ignore (Jt_rules.Rules.Index.at_insn index 0x400800)))
  in
  (* The load layer: indexing a file the size of a cold-code module's
     (about 4K rules).  A file is indexed once, so each build indexes a
     new copy. *)
  let cold_file = rule_file 4096 in
  let index_test =
    Test.make ~name:"rule index build (4096 rules)" (Staged.stage (fun () ->
        ignore
          (Jt_rules.Rules.index
             { cold_file with Jt_rules.Rules.rf_module = "m" })))
  in
  let tests = [ decode_test; shadow_test; table_test; index_test ] in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
    let raw =
      Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ]
        (Test.make_grouped ~name:"g" [ test ])
    in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name o ->
        match Analyze.OLS.estimates o with
        | Some [ est ] -> Printf.printf "  %-40s %10.1f ns/op\n" name est
        | Some _ | None -> ())
      results
  in
  Printf.printf "\n== Microbenchmarks (bechamel) ==\n";
  List.iter benchmark tests

(* ---- elide: dynamic-check reduction from the elision passes ----

   Per mem-op-heavy workload, JASan-hybrid runs twice — elision off and
   on — and reports the executed shadow-check counts from the c_san_checks
   counter.  The on-run includes the full stack: the static per-block
   passes (dominating checks, SCEV hoisting) plus the
   trace-spine elision the DBT performs on hot superblocks.  Two hard
   gates: the runs must be observably identical (status, output, icount,
   and the set of (kind, addr) violations), and the geomean check-count
   reduction must reach 45%. *)

type elide_row = {
  el_name : string;
  el_checks_off : int;
  el_checks_on : int;
  el_ratio : float;  (* on / off *)
  el_dom : int;
  el_trace : int;  (* executed-check elisions by the trace layer *)
  el_icount : int;
  el_identical : bool;
}

(* The mem-op-heavy subset both elision benches run. *)
let elide_subset =
  [ "bzip2"; "hmmer"; "libquantum"; "milc"; "lbm"; "sphinx3"; "perlbench"; "h264ref" ]

let same_elided a b =
  same_behaviour a b && a.Jt_vm.Vm.r_icount = b.Jt_vm.Vm.r_icount

let elide_bench () =
  let run_once ~elide registry main =
    let tool, _ = Jt_jasan.Jasan.create ~elide () in
    (* static elisions are counted in the rule files the run is handed *)
    let files =
      Janitizer.Driver.analyze_all ~tool
        (Janitizer.Driver.static_closure ~registry ~main)
    in
    let dom =
      List.fold_left
        (fun acc (_, (f : Jt_rules.Rules.file)) ->
          acc + Option.value ~default:0 (List.assoc_opt "elide_dom" f.rf_stats))
        0 files
    in
    let o = Janitizer.Driver.run ~tool ~precomputed:files ~registry ~main () in
    let c = Jt_metrics.Metrics.Counters.current () in
    ( o.o_result, c.c_san_checks, dom,
      c.c_san_trace_elide_dom + c.c_san_trace_elide_streak + c.c_san_trace_elide_ind )
  in
  let rows =
    List.map
      (fun name ->
        Printf.eprintf "  elide: %s...\n%!" name;
        let w = Specgen.build (Sheet.find name) in
        let reg = w.Specgen.w_registry in
        let r_off, c_off, _, _ = run_once ~elide:false reg name in
        let r_on, c_on, dom, trace = run_once ~elide:true reg name in
        {
          el_name = name;
          el_checks_off = c_off;
          el_checks_on = c_on;
          el_ratio = float_of_int c_on /. float_of_int (max c_off 1);
          el_dom = dom;
          el_trace = trace;
          el_icount = r_on.Jt_vm.Vm.r_icount;
          el_identical = same_elided r_off r_on;
        })
      elide_subset
  in
  open_table "JASan dynamic checks: elision off vs on"
    "executed shadow checks / static elisions / trace-layer elisions"
    [ "checks off"; "checks on"; "reduction %"; "dom"; "trace" ]
    (List.map
       (fun r ->
         ( r.el_name,
           [ count r.el_checks_off; count r.el_checks_on;
             value (100.0 *. (1.0 -. r.el_ratio)); count r.el_dom;
             count r.el_trace ] ))
       rows);
  let geo_ratio = Jt_metrics.Metrics.geomean (List.map (fun r -> r.el_ratio) rows) in
  let geo_reduction = 100.0 *. (1.0 -. geo_ratio) in
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.el_name); ("checks_off", Int r.el_checks_off);
          ("checks_on", Int r.el_checks_on);
          ("reduction_pct", Float (4, 100.0 *. (1.0 -. r.el_ratio)));
          ("elide_dom", Int r.el_dom);
          ("elide_trace", Int r.el_trace); ("icount", Int r.el_icount);
          ("identical", Bool r.el_identical) ])
  in
  write_report
    {
      target = "elide";
      gate =
        "elision on observably identical to elision off; geomean check \
         reduction >= 45%";
      fields =
        [ ("gate_reduction_pct", Json.Float (1, 45.0));
          ("geomean_reduction_pct", Json.Float (4, geo_reduction));
          ("workloads", Json.List (List.map row_json rows)) ];
      failures =
        List.filter_map
          (fun r ->
            if r.el_identical then None
            else Some (r.el_name ^ " diverged with elision on"))
          rows
        @
        if geo_reduction < 45.0 then
          [ Printf.sprintf "geomean check reduction %.1f%% below 45%%" geo_reduction ]
        else [];
    }

(* ---- trace-elide: the trace layer's own contribution ----

   Same eight mem-op-heavy workloads, JASan-hybrid with the static
   elision passes on in both runs; only the DBT's trace-spine elision is
   toggled.  This isolates what the superblock availability analysis
   removes *on top of* the per-block static passes (the per-block vs
   per-trace row of EXPERIMENTS.md).  Differential gate as for `elide`:
   status, output, icount and the (kind, addr) violation set must be
   bit-identical.  A third, dyn-only run (no static rules) records the
   trace-dom and trace-streak elisions, which the hybrid runs leave no
   room for; each must sum to more than 0 over the subset. *)

type trace_elide_row = {
  te_name : string;
  te_checks_off : int;  (* trace elision off (static passes still on) *)
  te_checks_on : int;
  te_dom : int;
  te_streak : int;
  te_ind : int;  (* hoisted to the streak-onset induction guard *)
  te_dyn_dom : int;  (* dyn-only run, trace elision on *)
  te_dyn_streak : int;
  te_identical : bool;
}

let trace_elide_bench () =
  let run_once ?hybrid ~trace_elide registry main =
    let tool, _ = Jt_jasan.Jasan.create () in
    let o =
      Janitizer.Driver.run ?hybrid ~trace_elide ~tool ~registry ~main ()
    in
    let c = Jt_metrics.Metrics.Counters.current () in
    ( o.o_result, c.c_san_checks, c.c_san_trace_elide_dom,
      c.c_san_trace_elide_streak, c.c_san_trace_elide_ind )
  in
  let rows =
    List.map
      (fun name ->
        Printf.eprintf "  trace-elide: %s...\n%!" name;
        let w = Specgen.build (Sheet.find name) in
        let reg = w.Specgen.w_registry in
        let r_off, c_off, _, _, _ = run_once ~trace_elide:false reg name in
        let r_on, c_on, dom, streak, ind =
          run_once ~trace_elide:true reg name
        in
        let _, _, dyn_dom, dyn_streak, _ =
          run_once ~hybrid:false ~trace_elide:true reg name
        in
        {
          te_name = name;
          te_checks_off = c_off;
          te_checks_on = c_on;
          te_dom = dom;
          te_streak = streak;
          te_ind = ind;
          te_dyn_dom = dyn_dom;
          te_dyn_streak = dyn_streak;
          te_identical = same_elided r_off r_on;
        })
      elide_subset
  in
  open_table "JASan trace-level elision: off vs on (static passes on in both)"
    "executed shadow checks / elided executions by reason"
    [ "checks off"; "checks on"; "reduction %"; "dom"; "streak"; "ind";
      "dyn dom"; "dyn streak" ]
    (List.map
       (fun r ->
         ( r.te_name,
           [ count r.te_checks_off; count r.te_checks_on;
             value (100.0 *. (1.0 -. ratio r.te_checks_on (max r.te_checks_off 1)));
             count r.te_dom; count r.te_streak; count r.te_ind;
             count r.te_dyn_dom; count r.te_dyn_streak ] ))
       rows);
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.te_name); ("checks_off", Int r.te_checks_off);
          ("checks_on", Int r.te_checks_on); ("trace_dom", Int r.te_dom);
          ("trace_streak", Int r.te_streak); ("trace_ind", Int r.te_ind);
          ("dyn_trace_dom", Int r.te_dyn_dom);
          ("dyn_trace_streak", Int r.te_dyn_streak);
          ("identical", Bool r.te_identical) ])
  in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  write_report
    {
      target = "trace-elide";
      gate =
        "trace elision on observably identical to off; dyn-only trace_dom \
         and trace_streak each fire";
      fields = [ ("workloads", Json.List (List.map row_json rows)) ];
      failures =
        List.filter_map
          (fun r ->
            if r.te_identical then None
            else Some (r.te_name ^ " diverged with trace elision on"))
          rows
        @ List.filter_map
            (fun (k, f) -> if total f = 0 then Some (k ^ " never fired") else None)
            [ ("dyn_trace_dom", fun r -> r.te_dyn_dom);
              ("dyn_trace_streak", fun r -> r.te_dyn_streak) ];
    }

(* ---- warmstart: cold vs warm static analysis through the IR store ----

   The full workload sweep runs twice against one on-disk IR store: a
   cold arm over an empty store (every module analyzed and persisted)
   and a warm arm with a fresh store handle over the same directory
   (every module reconstructed from disk).  The deterministic contract
   gates, not wall clock: the warm arm must perform *zero*
   [Static_analyzer.compute] runs (counter-verified across pool
   domains), its JASan and JCFI rule files must be byte-identical to the
   cold arm's, its run observables (status, output, icount, violations)
   must be bit-identical, and its store hit rate must be 100%.  JCFI's
   per-site policy reads the CPA sets, which the warm arm imports from
   the IR, so its rules catch a broken CPA round-trip.  Wall times are
   recorded in BENCH_warmstart.json for trajectory only. *)

type warm_eval = {
  we_name : string;
  we_rules : (string * string) list;  (* module -> encoded JASan rule bytes *)
  we_jcfi_rules : (string * string) list;
  we_status : string;
  we_output : string;
  we_icount : int;
  we_violations : (string * int * int) list;
  we_analysis_s : float;
}

let warmstart_eval ~store (s : Sheet.t) =
  let name = s.Sheet.s_name in
  let w = Specgen.build s in
  let registry = w.Specgen.w_registry in
  let closure = Janitizer.Driver.static_closure ~registry ~main:name in
  let jasan, _ = Jt_jasan.Jasan.create () in
  let jcfi, _ = Jt_jcfi.Jcfi.create () in
  let t0 = Unix.gettimeofday () in
  (* One analysis per module feeds both tools: in the cold arm JCFI sees
     the CPA sets just computed, in the warm arm the imported ones. *)
  let analyses = List.map (Janitizer.Static_analyzer.analyze ~store) closure in
  let files (tool : Janitizer.Tool.t) =
    List.map2
      (fun (m : Jt_obj.Objfile.t) sa -> (m.name, tool.t_static sa))
      closure analyses
  in
  let jasan_files = files jasan in
  let analysis_s = Unix.gettimeofday () -. t0 in
  let encode = List.map (fun (n, f) -> (n, Jt_rules.Rules.encode_file f)) in
  (* The simulated run consumes the rules just generated ([precomputed]
     covers the whole closure, so the run itself analyzes nothing); its
     observables depend only on those rule bytes. *)
  let run_tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~precomputed:jasan_files ~tool:run_tool ~registry
      ~main:name ()
  in
  let r = o.Janitizer.Driver.o_result in
  {
    we_name = name;
    we_rules = encode jasan_files;
    we_jcfi_rules = encode (files jcfi);
    we_status = Format.asprintf "%a" Jt_vm.Vm.pp_status r.r_status;
    we_output = r.r_output;
    we_icount = r.r_icount;
    we_violations =
      List.map
        (fun (v : Jt_vm.Vm.violation) -> (v.v_kind, v.v_addr, v.v_pc))
        r.r_violations;
    we_analysis_s = analysis_s;
  }

let warmstart () =
  let n_jobs = if !jobs > 1 then !jobs else 2 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jt_warmstart_%d" (Unix.getpid ()))
  in
  (* make sure the cold arm really is cold *)
  ignore (Jt_ir.Store.clear (Jt_ir.Store.create ~dir ()));
  let arm label =
    (* a fresh store handle per arm: the warm arm's memory LRU starts
       empty, so every warm hit exercises the disk decode path *)
    let store = Jt_ir.Store.create ~dir () in
    let a0 = Janitizer.Static_analyzer.analyses_performed () in
    Printf.eprintf "  warmstart: %s sweep (%d workloads, %d jobs)...\n%!"
      label (List.length Sheet.all) n_jobs;
    let t0 = Unix.gettimeofday () in
    let evals =
      if n_jobs > 1 then
        Jt_pool.Pool.run ~jobs:n_jobs (warmstart_eval ~store) Sheet.all
      else List.map (warmstart_eval ~store) Sheet.all
    in
    let wall = Unix.gettimeofday () -. t0 in
    let analyses = Janitizer.Static_analyzer.analyses_performed () - a0 in
    (evals, wall, analyses, Jt_ir.Store.stats store)
  in
  let cold, cold_wall, cold_analyses, cold_stats = arm "cold" in
  let warm, warm_wall, warm_analyses, warm_stats = arm "warm" in
  let analysis_wall evals =
    List.fold_left (fun acc e -> acc +. e.we_analysis_s) 0.0 evals
  in
  let cold_analysis_s = analysis_wall cold and warm_analysis_s = analysis_wall warm in
  let observable e = (e.we_status, e.we_output, e.we_icount, e.we_violations) in
  let pairs = List.combine cold warm in
  let mismatches rules =
    List.filter_map
      (fun (c, w) -> if rules c = rules w then None else Some c.we_name)
      pairs
  in
  let rule_mismatches = mismatches (fun e -> e.we_rules) in
  let jcfi_mismatches = mismatches (fun e -> e.we_jcfi_rules) in
  let obs_mismatches = mismatches observable in
  let warm_rate = Jt_ir.Store.hit_rate warm_stats in
  let arm_json (st : Jt_ir.Store.stats) analyses a_wall wall =
    Json.(
      Obj
        [ ("compute_runs", Int analyses); ("analysis_wall_s", Float (6, a_wall));
          ("wall_s", Float (6, wall)); ("mem_hits", Int st.st_mem_hits);
          ("disk_hits", Int st.st_disk_hits); ("misses", Int st.st_misses);
          ("corrupt", Int st.st_corrupt);
          ("hit_rate", Float (4, Jt_ir.Store.hit_rate st)) ])
  in
  let row_json (c, w) =
    Json.(
      Obj
        [ ("name", String c.we_name); ("cold_analysis_s", Float (6, c.we_analysis_s));
          ("warm_analysis_s", Float (6, w.we_analysis_s));
          ("rules_identical", Bool (c.we_rules = w.we_rules));
          ("jcfi_rules_identical", Bool (c.we_jcfi_rules = w.we_jcfi_rules));
          ("observables_identical", Bool (observable c = observable w)) ])
  in
  (* best-effort cleanup of the temp store *)
  ignore (Jt_ir.Store.clear (Jt_ir.Store.create ~dir ()));
  (try Sys.rmdir dir with Sys_error _ -> ());
  write_report
    {
      target = "warmstart";
      gate =
        "warm arm: zero analyses, 100% store hit rate, JASan and JCFI rules \
         byte-identical and observables bit-identical to the cold arm";
      fields =
        Json.
          [ ("jobs", Int n_jobs); ("workloads", Int (List.length cold));
            ("cold", arm_json cold_stats cold_analyses cold_analysis_s cold_wall);
            ("warm", arm_json warm_stats warm_analyses warm_analysis_s warm_wall);
            ("warm_compute_runs", Int warm_analyses);
            ("warm_hit_rate", Float (4, warm_rate));
            ("rules_identical", Bool (rule_mismatches = []));
            ("jcfi_rules_identical", Bool (jcfi_mismatches = []));
            ("observables_identical", Bool (obs_mismatches = []));
            ( "analysis_speedup",
              Float (3, cold_analysis_s /. max warm_analysis_s 1e-9) );
            ("per_workload", List (List.map row_json pairs)) ];
      failures =
        (if warm_analyses <> 0 then
           [ Printf.sprintf "warm arm performed %d analyses (want 0)" warm_analyses ]
         else [])
        @ (if warm_stats.st_misses <> 0 || warm_rate < 1.0 then
             [ Printf.sprintf "warm hit rate %.4f (want 1.0)" warm_rate ]
           else [])
        @ List.map (fun n -> n ^ ": JASan rules differ between arms") rule_mismatches
        @ List.map (fun n -> n ^ ": JCFI rules differ between arms") jcfi_mismatches
        @ List.map (fun n -> n ^ ": observables differ between arms") obs_mismatches;
    }

(* ---- emit: the AOT rewriter's differential gate ----

   Every C workload must emit, run on the plain VM and match the hybrid
   DBT bit-for-bit on status, output and the (kind, addr) violation set;
   instruction and cycle counts must decompose exactly into the
   uninstrumented baseline plus materialized check cost plus pin hops —
   the zero-translation-overhead accounting (no residue for a translator
   to hide in).  C++/Fortran closures must refuse with the typed
   Unsupported_feature verdict instead (the RetroWrite-style
   applicability rows), and the all-C Juliet CWE-122 suite is swept for
   detection parity on both the bad and patched variants.  Everything is
   recorded in BENCH_emit.json. *)

type emit_row = {
  eb_name : string;
  eb_lang : string;
  eb_sites : int;
  eb_pins : int;
  eb_check_cost : int;
  eb_slow_emit : float;
  eb_slow_hybrid : float;
  eb_identical : bool;
  eb_icount_ok : bool;
  eb_cycles_ok : bool;
}

(* Emit a program and run it, next to the hybrid DBT run it must match. *)
let emit_and_hybrid ~registry ~main =
  Result.map
    (fun p ->
      let e = Jt_emit.Emit.run p in
      (e, (Result.get_ok (Scheme.run (Jasan Hybrid) ~registry ~main)).so_run))
    (Jt_emit.Emit.emit_program ~tool:(Jt_emit.Emit.Asan { elide = true }) ~registry
       ~main ())

(* Detection parity over both variants of every case of a Juliet suite
   (all C, so every case must emit): (runs, mismatches). *)
let juliet_parity build cases =
  List.fold_left
    (fun (runs, bad_runs) c ->
      List.fold_left
        (fun (runs, bad_runs) bad ->
          let m = build c ~bad in
          let ok =
            match
              emit_and_hybrid ~registry:(Juliet.registry_for m)
                ~main:m.Jt_obj.Objfile.name
            with
            | Error _ -> false
            | Ok (e, h) ->
              same_behaviour e.Jt_emit.Emit.ro_outcome.o_result h.o_result
          in
          (runs + 1, if ok then bad_runs else bad_runs + 1))
        (runs, bad_runs) [ false; true ])
    (0, 0) cases

let emit_bench () =
  let rows = ref [] in
  let refusals = ref [] in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun f -> failures := f :: !failures) fmt in
  List.iter
    (fun (s : Sheet.t) ->
      Printf.eprintf "  emit: %s...\n%!" s.s_name;
      let w = Specgen.build s in
      let registry = w.Specgen.w_registry in
      match emit_and_hybrid ~registry ~main:s.s_name with
      | Error (m, r) ->
        let why = Jt_emit.Emit.refusal_to_string r in
        (match (s.s_lang, r) with
        | Sheet.C, _ -> fail "%s: refused (%s)" s.s_name why
        | _, Jt_emit.Emit.Unsupported_feature _ -> ()
        | _, _ -> fail "%s: wrong refusal kind (%s)" s.s_name why);
        refusals := (s.s_name, Sheet.lang_name s.s_lang, m, why) :: !refusals
      | Ok (e, h) ->
        if s.s_lang <> Sheet.C then fail "%s: expected a feature refusal" s.s_name;
        let er = e.Jt_emit.Emit.ro_outcome.o_result in
        (* Same allocator policy, no checks: the honest cost floor the
           zero-overhead identity is measured against. *)
        let b =
          Janitizer.Driver.run_plain
            ~setup:(fun vm ->
              Jt_jasan.Jasan.Rt.attach (Jt_jasan.Jasan.Rt.create ()) vm)
            ~registry ~main:s.s_name ()
        in
        let native = Specgen.run_native w in
        let identical = same_behaviour er h.o_result in
        let icount_ok =
          er.r_icount - e.ro_sites - e.ro_pins = h.o_result.r_icount
        in
        let cycles_ok =
          er.r_cycles = b.o_result.r_cycles + e.ro_check_cost + e.ro_pins
        in
        if not (identical && icount_ok && cycles_ok) then
          fail "%s: differential broken (identical=%b icount=%b cycles=%b)"
            s.s_name identical icount_ok cycles_ok;
        rows :=
          {
            eb_name = s.s_name;
            eb_lang = Sheet.lang_name s.s_lang;
            eb_sites = e.ro_sites;
            eb_pins = e.ro_pins;
            eb_check_cost = e.ro_check_cost;
            eb_slow_emit = ratio er.r_cycles native.r_cycles;
            eb_slow_hybrid = ratio h.o_result.r_cycles native.r_cycles;
            eb_identical = identical;
            eb_icount_ok = icount_ok;
            eb_cycles_ok = cycles_ok;
          }
          :: !rows)
    Sheet.all;
  let rows = List.rev !rows and refusals = List.rev !refusals in
  let suite key label (runs, mismatches) =
    if mismatches > 0 then
      fail "%s: %d/%d emitted-vs-hybrid mismatches" label mismatches runs;
    (key, Json.(Obj [ ("runs", Int runs); ("mismatches", Int mismatches) ]))
  in
  Printf.eprintf "  emit: juliet sweeps...\n%!";
  let juliet =
    suite "juliet" "juliet CWE-122" (juliet_parity Juliet.build_case Juliet.cases)
  in
  let families =
    suite "juliet_families" "juliet families (124/415/416/121)"
      (juliet_parity Juliet.build_family_case Juliet.all_family_cases)
  in
  open_table "AOT emit vs hybrid DBT (JASan, elision on)"
    "slowdown vs native / materialized sites / pin hops"
    [ "emit x"; "hybrid x"; "sites"; "pins"; "check cyc" ]
    (List.map
       (fun r ->
         ( r.eb_name,
           [ value r.eb_slow_emit; value r.eb_slow_hybrid; count r.eb_sites;
             count r.eb_pins; count r.eb_check_cost ] ))
       rows);
  let geo sel = Jt_metrics.Metrics.geomean (List.map sel rows) in
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.eb_name); ("lang", String r.eb_lang);
          ("sites", Int r.eb_sites); ("pins", Int r.eb_pins);
          ("check_cycles", Int r.eb_check_cost);
          ("slowdown_emit", Float (4, r.eb_slow_emit));
          ("slowdown_hybrid", Float (4, r.eb_slow_hybrid));
          ("identical", Bool r.eb_identical); ("icount_exact", Bool r.eb_icount_ok);
          ("cycles_exact", Bool r.eb_cycles_ok) ])
  in
  let refusal_json (n, lang, m, r) =
    Json.(
      Obj
        [ ("name", String n); ("lang", String lang); ("module", String m);
          ("refusal", String r) ])
  in
  write_report
    {
      target = "emit";
      gate =
        "bit-identical differential on emittable workloads, typed refusals \
         elsewhere, exact icount/cycle accounting";
      fields =
        Json.
          [ ("geomean_slowdown_emit", Float (4, geo (fun r -> r.eb_slow_emit)));
            ("geomean_slowdown_hybrid", Float (4, geo (fun r -> r.eb_slow_hybrid)));
            juliet; families; ("workloads", List (List.map row_json rows));
            ("refusals", List (List.map refusal_json refusals)) ];
      failures = List.rev !failures;
    }

(* ---- differential soundness fuzzer ---- *)

let fuzz_bench () =
  let base_seed = 1 and seeds = 84 in
  Printf.eprintf
    "  fuzz: %d seeded cases (benign + 5 injections each) x %d schemes...\n%!"
    (6 * seeds)
    (List.length Jt_fuzz.Fuzz.schemes);
  let r = Jt_fuzz.Fuzz.run_suite ~base_seed ~seeds () in
  open_table "Differential soundness fuzzer (ground-truth detection matrix)"
    "cases"
    [ "TP"; "FN"; "TN"; "FP"; "refused" ]
    (List.map
       (fun (x : Jt_fuzz.Fuzz.matrix_row) ->
         ( x.mx_scheme,
           [ count x.mx_tp; count x.mx_fn; count x.mx_tn; count x.mx_fp;
             count x.mx_refused ] ))
       r.rp_matrix);
  let row_json (x : Jt_fuzz.Fuzz.matrix_row) =
    Json.(
      Obj
        [ ("scheme", String x.mx_scheme); ("tp", Int x.mx_tp); ("fn", Int x.mx_fn);
          ("tn", Int x.mx_tn); ("fp", Int x.mx_fp); ("refused", Int x.mx_refused) ])
  in
  write_report
    {
      target = "fuzz";
      gate =
        "expected detection matrix, bit-identical observables, exact icount \
         accounting, hybrid=emitted violation sets";
      fields =
        Json.
          [ ("base_seed", Int base_seed); ("cases", Int r.rp_cases);
            ("runs", Int r.rp_runs); ("mismatches", Int (List.length r.rp_mismatches));
            ("matrix", List (List.map row_json r.rp_matrix)) ];
      failures =
        List.map
          (fun (m : Jt_fuzz.Fuzz.mismatch) ->
            Printf.sprintf "%s %s: %s" m.mm_case m.mm_scheme m.mm_what)
          r.rp_mismatches;
    }

(* ---- air: per-site CPA policy vs any-entry ----

   For every workload: static AIR (BinCFI-style, over all indirect CTIs)
   under JCFI's any-entry policy and under the per-site CPA policy, with
   the forward/backward split; dynamic AIR over the executed sites for
   both; the per-site target-set-size histogram; and the
   refinement-soundness oracle — every executed (site, target) pair must
   be inside the site's installed set whenever one exists.  CI gates:
   zero oracle violations anywhere in the sweep, and per-site forward
   static AIR strictly above any-entry averaged over the C subset.
   Recorded in BENCH_air.json. *)

type air_row = {
  ar_sheet : Sheet.t;
  ar_s_any : Jt_jcfi.Air.static_report;
  ar_s_cpa : Jt_jcfi.Air.static_report;
  ar_d_any : float;
  ar_d_cpa : float;
  ar_observed : int;  (* executed (site, target) pairs *)
  ar_violations : (int * int) list;  (* of which outside the site's set *)
}

let air_eval (s : Sheet.t) =
  Printf.eprintf "  air: %s...\n%!" s.Sheet.s_name;
  let w = Specgen.build s in
  let registry = w.Specgen.w_registry in
  let main = s.Sheet.s_name in
  let closure = Janitizer.Driver.static_closure ~registry ~main in
  let s_any = Jt_jcfi.Air.static_jcfi_report closure in
  let s_cpa = Jt_jcfi.Air.static_jcfi_report ~per_site:true closure in
  let tool, rt = Jt_jcfi.Jcfi.create () in
  let _ = Janitizer.Driver.run ~tool ~registry ~main () in
  let d_any = Jt_jcfi.Air.dynamic rt in
  let d_cpa = Jt_jcfi.Air.dynamic ~per_site:true rt in
  let observed = Jt_jcfi.Jcfi.Rt.observed_icalls rt in
  (* The oracle runs against the *installed* tables (run-time
     addresses), not the link-time CPA sets, so PIC modules are checked
     in the coordinate system the policy actually enforced. *)
  let tables = List.map snd (Jt_jcfi.Jcfi.Rt.tables rt) in
  let violations =
    List.filter
      (fun (site, target) ->
        List.exists
          (fun tbl ->
            match Jt_jcfi.Targets.site_set tbl ~site with
            | Some set -> not (List.mem target set)
            | None -> false)
          tables)
      observed
  in
  {
    ar_sheet = s;
    ar_s_any = s_any;
    ar_s_cpa = s_cpa;
    ar_d_any = d_any;
    ar_d_cpa = d_cpa;
    ar_observed = List.length observed;
    ar_violations = violations;
  }

let air_bench () =
  let rows = List.map air_eval Sheet.all in
  open_table "AIR: any-entry vs per-site CPA policy"
    "static forward AIR (BinCFI-style) and dynamic AIR (Lockdown-style)"
    [ "s-fwd any"; "s-fwd cpa"; "resolved"; "d any"; "d cpa"; "viol" ]
    (List.map
       (fun r ->
         ( r.ar_sheet.Sheet.s_name,
           [ value r.ar_s_any.Jt_jcfi.Air.sr_fwd; value r.ar_s_cpa.sr_fwd;
             count r.ar_s_cpa.sr_resolved; value r.ar_d_any; value r.ar_d_cpa;
             count (List.length r.ar_violations) ] ))
       rows);
  let c_names = List.map (fun s -> s.Sheet.s_name) Sheet.c_benchmarks in
  let c_rows =
    List.filter (fun r -> List.mem r.ar_sheet.Sheet.s_name c_names) rows
  in
  let mean f l =
    List.fold_left (fun a r -> a +. f r) 0.0 l /. float_of_int (List.length l)
  in
  let c_any = mean (fun r -> r.ar_s_any.Jt_jcfi.Air.sr_fwd) c_rows in
  let c_cpa = mean (fun r -> r.ar_s_cpa.Jt_jcfi.Air.sr_fwd) c_rows in
  let violations =
    List.concat_map
      (fun r ->
        List.map
          (fun (site, target) ->
            Printf.sprintf "%s observed icall %d -> %d outside its set"
              r.ar_sheet.Sheet.s_name site target)
          r.ar_violations)
      rows
  in
  let report_json (sr : Jt_jcfi.Air.static_report) =
    Json.(
      Obj
        [ ("air", Float (6, sr.sr_air)); ("fwd", Float (6, sr.sr_fwd));
          ("bwd", Float (6, sr.sr_bwd)); ("icalls", Int sr.sr_icalls);
          ("resolved", Int sr.sr_resolved);
          ( "hist",
            List
              (List.map
                 (fun (size, n) -> Obj [ ("size", Int size); ("sites", Int n) ])
                 sr.sr_hist) ) ])
  in
  let row_json r =
    Json.(
      Obj
        [ ("name", String r.ar_sheet.Sheet.s_name);
          ("lang", String (Sheet.lang_name r.ar_sheet.Sheet.s_lang));
          ("static_any", report_json r.ar_s_any); ("static_cpa", report_json r.ar_s_cpa);
          ("dynamic_any", Float (6, r.ar_d_any)); ("dynamic_cpa", Float (6, r.ar_d_cpa));
          ("observed_icalls", Int r.ar_observed);
          ("violations", Int (List.length r.ar_violations)) ])
  in
  write_report
    {
      target = "air";
      gate =
        "zero soundness-oracle violations; per-site forward static AIR \
         strictly above any-entry on the C subset";
      fields =
        Json.
          [ ("c_sweep_static_fwd_any", Float (6, c_any));
            ("c_sweep_static_fwd_cpa", Float (6, c_cpa));
            ("oracle_violations", Int (List.length violations));
            ("workloads", List (List.map row_json rows)) ];
      failures =
        violations
        @
        if c_cpa <= c_any then
          [ Printf.sprintf "C-sweep per-site forward AIR %.4f%% not above any-entry %.4f%%"
              c_cpa c_any ]
        else [];
    }

(* ---- retention: what the engines keep of code that runs once ----

   perfbench's cold-code module at its top rung (perlbench with
   [s_code_bloat] 800 and one unit, named as at seed 1, round 0), run
   under [Vm.run] and under the null DBT: per guest instruction, the
   words each run allocates on the minor heap and the words that
   survive into the major heap.  Each engine runs once first, and
   [Gc.compact] settles the heap before the measured run ([Gc.minor]
   empties the minor heap after it), so a build gives the same counts
   whichever targets ran before.  Most of this code runs once: what an
   engine builds for it and keeps past the next minor collection is
   promoted, then collected by the major GC.  The gate bounds the promoted words per instruction at
   60% of what the engines promoted when they kept every decode and
   translation (7.32 under [Vm.run], 12.15 under the null DBT).
   Recorded in BENCH_retention.json. *)

let retention () =
  let sheet =
    {
      (Sheet.find "perlbench") with
      Sheet.s_name = "perlbench_cold_1_0_4";
      s_code_bloat = 800;
      s_units = 1;
    }
  in
  let w = Specgen.build sheet in
  let registry = w.Specgen.w_registry and main = sheet.s_name in
  let gc_of (name, bound, run) =
    Gc.compact ();
    let m0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).promoted_words in
    let o : Janitizer.Driver.outcome = run () in
    let m1 = Gc.minor_words () in
    Gc.minor ();
    (name, bound, o.o_result, m1 -. m0, (Gc.quick_stat ()).promoted_words -. p0)
  in
  let engines =
    [ ("vm_run", 4.39, fun () -> Janitizer.Driver.run_native ~registry ~main ());
      ("null_dbt", 7.29, fun () -> Janitizer.Driver.run_null ~registry ~main ()) ]
  in
  (* a first run of each fills what the process keeps across runs (the
     libraries' digests and memos), so the counts do not depend on which
     targets ran before *)
  List.iter (fun (_, _, run) -> ignore (run () : Janitizer.Driver.outcome)) engines;
  let runs = List.map gc_of engines in
  let _, _, (native : Jt_vm.Vm.result), _, _ = List.hd runs in
  let per_insn x = x /. float_of_int (max native.r_icount 1) in
  open_table "Retention on cold code (perlbench, code bloat 800)" "words / insn"
    [ "minor"; "promoted"; "promoted %" ]
    (List.map
       (fun (name, _, _, minor, promoted) ->
         ( name,
           [ value (per_insn minor); value (per_insn promoted);
             value (100.0 *. promoted /. minor) ] ))
       runs);
  write_report
    {
      target = "retention";
      gate =
        "the null DBT's status, output and icount equal Vm.run's; promoted \
         words per guest instruction within each engine's bound";
      fields =
        Json.
          [ ("module", String main); ("icount", Int native.r_icount);
            ( "runs",
              List
                (List.map
                   (fun (name, bound, _, minor, promoted) ->
                     Obj
                       [ ("engine", String name);
                         ("minor_words_per_insn", Float (4, per_insn minor));
                         ("promoted_words_per_insn", Float (4, per_insn promoted));
                         ("promoted_bound", Float (2, bound));
                         ("promoted_share", Float (4, promoted /. minor)) ])
                   runs) ) ];
      failures =
        List.concat_map
          (fun (name, bound, (r : Jt_vm.Vm.result), _, promoted) ->
            (if
               r.r_status = native.r_status && r.r_output = native.r_output
               && r.r_icount = native.r_icount
             then []
             else [ name ^ " diverged from Vm.run" ])
            @
            if per_insn promoted <= bound then []
            else
              [ Printf.sprintf "%s: %.4f promoted words per instruction, over %g"
                  name (per_insn promoted) bound ])
          runs;
    }

(* ---- driver ---- *)

let targets =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("ablation", ablation);
    ("dispatch", dispatch);
    ("shadow", shadow_bench);
    ("trace-overhead", trace_overhead);
    ("elide", elide_bench);
    ("trace-elide", trace_elide_bench);
    ("parallel", parallel_bench);
    ("warmstart", warmstart);
    ("micro", micro);
    ("emit", emit_bench);
    ("fuzz", fuzz_bench);
    ("air", air_bench);
    ("retention", retention);
  ]

(* Strip `--jobs N` (or `--jobs=N`) anywhere in the argument list; the
   rest are target names. *)
let rec parse_args = function
  | [] -> []
  | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some v when v >= 1 ->
      jobs := v;
      parse_args rest
    | _ ->
      Printf.eprintf "bad --jobs value %S\n" n;
      exit 2)
  | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
    parse_args ("--jobs" :: String.sub arg 7 (String.length arg - 7) :: rest)
  | arg :: rest -> arg :: parse_args rest

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [ "list" ] ->
    List.iter (fun (n, _) -> print_endline n) targets
  | [] ->
    Printf.printf "janitizer benchmark harness: regenerating all figures\n%!";
    List.iter (fun (n, f) -> Printf.printf "\n---- %s ----\n%!" n; f ()) targets
  | names -> (
    (* reject a bad name before running anything, with --jobs's status *)
    match List.filter (fun n -> not (List.mem_assoc n targets)) names with
    | [] -> List.iter (fun n -> List.assoc n targets ()) names
    | bad ->
      List.iter (Printf.eprintf "unknown target %s (try 'list')\n") bad;
      exit 2)
