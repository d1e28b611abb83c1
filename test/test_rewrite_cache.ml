(* The shared-object rewrite cache (Jt_ir.Rewrite_cache): the emitter,
   BinCFI and RetroWrite rewrite each shared object once per process,
   across pool domains, and a cache hit equals a fresh computation. *)

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
  let on_pool f = Jt_pool.Pool.run ~jobs f (List.init jobs (fun _ -> ())) in
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
