(* The shared-object rewrite cache (Jt_ir.Rewrite_cache): the hybrid
   driver's rule files, the emitter, BinCFI and RetroWrite rewrite each
   shared object once per process and tool tag, across pool domains, and
   a cache hit equals a fresh computation. *)

module Sa = Janitizer.Static_analyzer
module Emit = Jt_emit.Emit
module Bincfi = Jt_baselines.Bincfi
module Retrowrite = Jt_baselines.Retrowrite_like

let is_shared (m : Jt_obj.Objfile.t) = m.kind = Jt_obj.Objfile.Shared

(* bzip2 as a PIC executable (so RetroWrite accepts it), with libc and
   libm in its closure and libcxx and libgfortran as dlopen-only extras. *)
let pic_bzip2 =
  lazy
    (Jt_workloads.Specgen.build ~kind:Jt_obj.Objfile.Exec_pic
       (Jt_workloads.Sheet.find "bzip2"))

let analyses f =
  let a0 = Sa.analyses_performed () in
  let x = f () in
  (x, Sa.analyses_performed () - a0)

(* -- four domains, one registry -- *)

(* Runs first: counting analyses needs modules this process has not
   rewritten yet, and no other test here emits with this tool tag. *)
let test_pool () =
  let w = Lazy.force pic_bzip2 in
  let registry = w.w_registry and main = "bzip2" in
  let tool = Emit.Cfi { cf_forward = true; cf_backward = false } in
  let jobs = 4 in
  (* Each job waits until all [jobs] have started, so [jobs] distinct
     domains run one job each: a domain that ran two would answer bzip2
     from its analysis slot (DESIGN §20) and the counts below assume
     one bzip2 analysis per domain. *)
  let started = Atomic.make 0 in
  let on_pool f =
    Atomic.set started 0;
    Jt_pool.Pool.run ~jobs
      (fun () ->
        Atomic.incr started;
        while Atomic.get started < jobs do
          Domain.cpu_relax ()
        done;
        f ())
      (List.init jobs (fun _ -> ()))
  in
  let same what = function
    | [] -> ()
    | first :: rest ->
      List.iteri
        (fun k x ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: domain %d" what (k + 1))
            true (x = first))
        rest
  in
  (* emission: JELF bytes and rule files *)
  let emitted, n =
    analyses (fun () ->
        on_pool (fun () ->
            match Emit.emit_program ~tool ~registry ~main () with
            | Error (m, r) ->
              Alcotest.failf "%s refused: %s" m (Emit.refusal_to_string r)
            | Ok p ->
              ( List.map Jt_obj.Jelf.write p.p_registry,
                List.map (fun (n, f) -> (n, Jt_rules.Rules.encode_file f)) p.p_rules,
                p.p_emitted,
                List.map (fun (n, r) -> (n, Emit.refusal_to_string r)) p.p_skipped )))
  in
  same "emitted program" emitted;
  (* ld.so, libc, libm, libcxx and libgfortran once; bzip2 per domain *)
  Alcotest.(check int) "emit: each shared module analyzed once" (5 + jobs) n;
  (* RetroWrite plans libc and libm (libcxx and libgfortran defeat its
     reassembly) and bzip2 *)
  let rw, n =
    analyses (fun () -> on_pool (fun () -> Retrowrite.run ~registry ~main ()))
  in
  same "retrowrite result" rw;
  Alcotest.(check bool) "retrowrite accepts the PIC build" true
    (Result.is_ok (List.hd rw));
  Alcotest.(check int) "retrowrite: each shared module analyzed once" (2 + jobs) n;
  let bc, n =
    analyses (fun () -> on_pool (fun () -> Bincfi.run ~registry ~main ()))
  in
  same "bincfi result" bc;
  Alcotest.(check int) "bincfi analyzes nothing" 0 n;
  (* a sequential rerun, all hits for the shared objects, agrees *)
  Alcotest.(check bool) "retrowrite rerun" true
    (Retrowrite.run ~registry ~main () = List.hd rw);
  Alcotest.(check bool) "bincfi rerun" true (Bincfi.run ~registry ~main () = List.hd bc)

(* -- hybrid runs: one library rule file per tool tag -- *)

let closure_libs registry main =
  List.filter is_shared (Janitizer.Driver.static_closure ~registry ~main)

(* Runs right after "pool", which rewrites through the emitter's kind
   only: no library has a rule file under these tags yet. *)
let test_hybrid_once_per_tag () =
  let tools =
    [
      ("jasan", fun () -> fst (Jt_jasan.Jasan.create ()));
      ("jcfi", fun () -> fst (Jt_jcfi.Jcfi.create ()));
      ("taint", fun () -> fst (Jt_taint.Taint.create ()));
    ]
  in
  List.iter
    (fun (label, make) ->
      let seen = Hashtbl.create 8 in
      let libc_files =
        List.map
          (fun name ->
            (* a fresh main, and a slot holding another module *)
            let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find name) in
            ignore (Sa.compute (Progs.sum_prog ~name:"slot" ()));
            let registry = w.w_registry in
            let libs = closure_libs registry name in
            let fresh_libs =
              List.filter (fun (m : Jt_obj.Objfile.t) -> not (Hashtbl.mem seen m.name)) libs
            in
            List.iter (fun (m : Jt_obj.Objfile.t) -> Hashtbl.replace seen m.name ()) libs;
            let tool : Janitizer.Tool.t = make () in
            let libc = ref None in
            let tool =
              { tool with
                Janitizer.Tool.t_setup =
                  (fun vm ~rules_for ->
                    libc := rules_for "libc.so";
                    tool.t_setup vm ~rules_for) }
            in
            let o, n =
              analyses (fun () -> Janitizer.Driver.run ~tool ~registry ~main:name ())
            in
            Alcotest.(check string)
              (Printf.sprintf "%s %s: exits" label name)
              "exited(0)"
              (Format.asprintf "%a" Jt_vm.Vm.pp_status o.o_result.r_status);
            Alcotest.(check int)
              (Printf.sprintf "%s %s: main plus the libraries not seen yet" label name)
              (1 + List.length fresh_libs) n;
            Option.get !libc)
          [ "bzip2"; "mcf" ]
      in
      match libc_files with
      | [ first; second ] ->
        Alcotest.(check bool) (label ^ ": second program reuses libc's file") true
          (first == second)
      | _ -> assert false)
    tools

(* Each static option and JCFI configuration has its own tag, so a file
   cached for one configuration is never served to another.  Per option,
   a base configuration and the same with the option flipped: the
   canary accesses are frame slots, which frame skipping already leaves
   unchecked, so [exempt_canary] matters only with frame skipping off. *)
let jasan_variants =
  let open Jt_jasan.Jasan in
  let pair ?(base = fun () -> create ()) label variant =
    (label, (fun () -> fst (base ())), fun () -> fst (variant ()))
  in
  [
    pair "liveness" (fun () -> create ~liveness:Live_none ());
    pair "hoist_scev" (fun () -> create ~hoist_scev:false ());
    pair "skip_frame_accesses" (fun () -> create ~skip_frame_accesses:false ());
    pair "exempt_canary"
      ~base:(fun () -> create ~skip_frame_accesses:false ())
      (fun () -> create ~skip_frame_accesses:false ~exempt_canary:false ());
    pair "elide" (fun () -> create ~elide:false ());
    pair "cross_call" (fun () -> create ~cross_call:false ());
  ]

let jcfi_variants =
  List.map
    (fun (label, cf_forward, cf_backward) ->
      ( label,
        (fun () -> fst (Jt_jcfi.Jcfi.create ())),
        fun () -> fst (Jt_jcfi.Jcfi.create ~config:{ cf_forward; cf_backward } ()) ))
    [ ("jcfi-fwd", true, false); ("jcfi-bwd", false, true); ("jcfi-none", false, false) ]

(* A shared object whose second heap load is covered across a call to a
   barrier-free leaf: the one module here where [cross_call] matters. *)
let libcross =
  let open Jt_isa in
  let open Jt_asm.Builder in
  let open Jt_asm.Builder.Dsl in
  build ~name:"libcross.so" ~kind:Jt_obj.Objfile.Shared ~deps:[ "libc.so" ]
    [
      func "leaf" [ movi Reg.r1 1; ret ];
      func ~exported:true "work"
        [
          movi Reg.r0 32;
          call_import "malloc";
          mov Reg.r6 Reg.r0;
          ld Reg.r2 (mem_b ~disp:0 Reg.r6);
          call "leaf";
          ld Reg.r3 (mem_b ~disp:0 Reg.r6);
          ret;
        ];
    ]

let test_configurations_apart () =
  (* bzip2 built as a shared object has the loops and frame accesses the
     libraries lack *)
  let bzip2_so =
    List.find
      (fun (m : Jt_obj.Objfile.t) -> m.name = "bzip2")
      (Jt_workloads.Specgen.build ~kind:Jt_obj.Objfile.Shared
         (Jt_workloads.Sheet.find "bzip2"))
        .w_registry
  in
  let modules =
    Jt_workloads.Stdlibs.all @ [ Jt_loader.Loader.ld_so; bzip2_so; libcross ]
  in
  let served (tool : Janitizer.Tool.t) =
    List.map
      (fun (_, f) -> Jt_rules.Rules.encode_file f)
      (Janitizer.Driver.analyze_all ~tool modules)
  in
  ignore (served (fst (Jt_jasan.Jasan.create ())));
  ignore (served (fst (Jt_jcfi.Jcfi.create ())));
  List.iter
    (fun (label, base, variant) ->
      let base_bytes = served (base ()) in
      let tool : Janitizer.Tool.t = variant () in
      let bytes = served tool in
      List.iter2
        (fun (m : Jt_obj.Objfile.t) b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: served = fresh" label m.name)
            true
            (b = Jt_rules.Rules.encode_file (tool.t_static (Sa.compute m))))
        modules bytes;
      (* so the check above can tell a shared tag from a distinct one *)
      Alcotest.(check bool) (label ^ " changes some module's rules") true
        (bytes <> base_bytes))
    (jasan_variants @ jcfi_variants);
  Alcotest.(check string) "clean calls change only run-time costs"
    (fst (Jt_jasan.Jasan.create ())).t_tag
    (fst (Jt_jasan.Jasan.create ~clean_calls:true ())).t_tag

(* The emitter stamps these strings into its JEM1 maps. *)
let test_emitter_tags () =
  Alcotest.(check (list string)) "emitter tags"
    [ "jasan+elide"; "jasan"; "jcfi"; "jcfi-fwd"; "jcfi-bwd"; "jcfi-none" ]
    (List.map Emit.tool_tag
       [
         Emit.Asan { elide = true };
         Emit.Asan { elide = false };
         Emit.Cfi { cf_forward = true; cf_backward = true };
         Emit.Cfi { cf_forward = true; cf_backward = false };
         Emit.Cfi { cf_forward = false; cf_backward = true };
         Emit.Cfi { cf_forward = false; cf_backward = false };
       ])

(* -- a cache hit equals a fresh computation -- *)

(* Every shared object of the registry, ld.so and cactusADM's dlopen'd
   solver, extras of a program whose closure is ld.so, libc and libm. *)
let registry () =
  let w = Lazy.force pic_bzip2 in
  let in_bzip2 (m : Jt_obj.Objfile.t) =
    List.exists (fun (r : Jt_obj.Objfile.t) -> r.name = m.name) w.w_registry
  in
  let plugins =
    List.filter
      (fun m -> is_shared m && not (in_bzip2 m))
      (Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "cactusADM")).w_registry
  in
  Alcotest.(check bool) "cactusADM has a plugin" true (plugins <> []);
  w.w_registry @ plugins

let shared_modules registry =
  List.filter is_shared registry @ [ Jt_loader.Loader.ld_so ]

let emit_tools =
  [
    Emit.Asan { elide = true };
    Emit.Asan { elide = false };
    Emit.Cfi Jt_jcfi.Jcfi.default_config;
  ]

let static_pass = function
  | Emit.Asan { elide } -> (fst (Jt_jasan.Jasan.create ~elide ())).t_static
  | Emit.Cfi config -> (fst (Jt_jcfi.Jcfi.create ~config ())).t_static

let test_emit_hits () =
  let registry = registry () in
  List.iter
    (fun tool ->
      let tag = Emit.tool_tag tool in
      (* the second emission is served from the cache for every shared
         object *)
      let emit () =
        match Emit.emit_program ~tool ~registry ~main:"bzip2" () with
        | Ok p -> p
        | Error (m, r) -> Alcotest.failf "%s refused: %s" m (Emit.refusal_to_string r)
      in
      ignore (emit ());
      let p = emit () in
      List.iter
        (fun (m : Jt_obj.Objfile.t) ->
          let label what = Printf.sprintf "%s %s: %s" tag m.name what in
          let sa = Sa.compute m in
          let rules = static_pass tool sa in
          Alcotest.(check string) (label "rule file")
            (Jt_rules.Rules.encode_file rules)
            (Jt_rules.Rules.encode_file (List.assoc m.name p.p_rules));
          match Emit.emit_module ~tool ~rules sa with
          | Ok m' ->
            let hit =
              List.find (fun (r : Jt_obj.Objfile.t) -> r.name = m.name) p.p_registry
            in
            Alcotest.(check string) (label "emitted JELF") (Jt_obj.Jelf.write m')
              (Jt_obj.Jelf.write hit)
          | Error r ->
            Alcotest.(check (option string)) (label "refusal")
              (Some (Emit.refusal_to_string r))
              (Option.map Emit.refusal_to_string (List.assoc_opt m.name p.p_skipped)))
        (shared_modules registry))
    emit_tools

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let test_bincfi_hits () =
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      ignore (Bincfi.prepare m);
      let hit = Bincfi.prepare m and fresh = Bincfi.prepare_module m in
      let label what = m.name ^ ": " ^ what in
      Alcotest.(check (float 0.0)) (label "data in code") fresh.bc_data_in_code
        hit.bc_data_in_code;
      Alcotest.(check bool) (label "refusal") true
        (fresh.bc_data_in_code > Bincfi.data_in_code_threshold
        = (hit.bc_data_in_code > Bincfi.data_in_code_threshold));
      Alcotest.(check (list int)) (label "forward targets")
        (sorted_keys fresh.bc_scan_targets) (sorted_keys hit.bc_scan_targets);
      Alcotest.(check (list int)) (label "return targets")
        (sorted_keys fresh.bc_ret_targets) (sorted_keys hit.bc_ret_targets);
      Alcotest.(check (pair int int)) (label "indirect transfers and returns")
        (fresh.bc_indirect, fresh.bc_returns) (hit.bc_indirect, hit.bc_returns))
    (shared_modules (registry ()))

let test_retrowrite_hits () =
  Alcotest.(check bool) "libc has sites" true
    (Array.length (Retrowrite.plan Jt_workloads.Stdlibs.libc) > 0);
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      ignore (Retrowrite.plan m);
      let hit = Retrowrite.plan m
      and fresh = Retrowrite.site_plan (Sa.compute m) in
      Alcotest.(check int) (m.name ^ ": sites") (Array.length fresh)
        (Array.length hit);
      Alcotest.(check bool) (m.name ^ ": site plan") true (fresh = hit))
    (shared_modules (registry ()))

(* -- admission and keys -- *)

let test_executables_not_cached () =
  let m = Progs.sum_prog ~name:"uncached" ~n:17 () in
  let _, n =
    analyses (fun () ->
        ignore (Retrowrite.plan m);
        ignore (Retrowrite.plan m))
  in
  Alcotest.(check int) "an executable is planned afresh each time" 2 n;
  Alcotest.check_raises "kind names are unique"
    (Invalid_argument "Rewrite_cache.kind: duplicate kind emit") (fun () ->
      ignore (Jt_ir.Rewrite_cache.kind "emit" : unit Jt_ir.Rewrite_cache.kind))

let () =
  Alcotest.run "rewrite-cache"
    [
      ("pool", [ Alcotest.test_case "four domains, one registry" `Quick test_pool ]);
      ( "hybrid",
        [
          Alcotest.test_case "each library once per tag" `Quick
            test_hybrid_once_per_tag;
          Alcotest.test_case "configurations kept apart" `Quick
            test_configurations_apart;
          Alcotest.test_case "emitter tags" `Quick test_emitter_tags;
        ] );
      ( "hit equals fresh",
        [
          Alcotest.test_case "emitter" `Quick test_emit_hits;
          Alcotest.test_case "bincfi" `Quick test_bincfi_hits;
          Alcotest.test_case "retrowrite" `Quick test_retrowrite_hits;
        ] );
      ( "admission",
        [
          Alcotest.test_case "executables and kinds" `Quick
            test_executables_not_cached;
        ] );
    ]
