(* The structured trace layer: ring-buffer semantics, the disabled-path
   no-op contract, the JSONL writer's golden lines, violation provenance stamped from
   live runs, phase spans, and the relocated entry-accounting invariant
   (both that real runs satisfy it and that a seeded mismatch fires). *)

open Jt_trace.Trace

(* Every test leaves the global sink disabled and empty so suites don't
   contaminate each other. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      disable ();
      clear ())
    f

(* -- ring buffer -- *)

let test_ring_wraparound () =
  enable ~capacity:8 ();
  for pc = 1 to 20 do
    emit (Block_exec { pc })
  done;
  Alcotest.(check int) "emitted counts everything" 20 (emitted ());
  Alcotest.(check int) "dropped = emitted - capacity" 12 (dropped ());
  let pcs =
    List.map (function Block_exec { pc } -> pc | _ -> -1) (events ())
  in
  Alcotest.(check (list int)) "last 8 events, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ] pcs

let test_ring_below_capacity () =
  enable ~capacity:64 ();
  emit (Block_exec { pc = 1 });
  emit (Block_exec { pc = 2 });
  Alcotest.(check int) "two emitted" 2 (emitted ());
  Alcotest.(check int) "none dropped" 0 (dropped ());
  Alcotest.(check int) "two buffered" 2 (List.length (events ()));
  clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (events ()));
  Alcotest.(check bool) "clear keeps enabled" true (is_enabled ())

let test_bad_capacity () =
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Trace.enable: capacity must be positive") (fun () ->
      enable ~capacity:0 ())

(* -- disabled path -- *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (is_enabled ());
  (* the emit-site contract is [if is_enabled () then emit ...]; but even a
     raw emit with no ring must be a silent no-op *)
  emit (Block_exec { pc = 42 });
  Alcotest.(check int) "nothing recorded" 0 (emitted ());
  Alcotest.(check (list int)) "no events" []
    (List.map (fun _ -> 0) (events ()));
  enable ~capacity:4 ();
  emit (Block_exec { pc = 1 });
  disable ();
  Alcotest.(check bool) "disable clears the flag" false (is_enabled ());
  Alcotest.(check int) "buffer still readable after disable" 1
    (List.length (events ()))

(* -- JSONL export: golden lines, one per constructor -- *)

let golden =
  [
    ( Block_translate { pc = 0x400100; insns = 7; origin = Static },
      {|{"ev": "block_translate", "pc": 4194560, "insns": 7, "origin": "static"}|} );
    ( Block_translate { pc = 0x400200; insns = 1; origin = Dynamic },
      {|{"ev": "block_translate", "pc": 4194816, "insns": 1, "origin": "dynamic"}|} );
    (Block_exec { pc = 0x400100 }, {|{"ev": "block_exec", "pc": 4194560}|});
    ( Chain_link { from_pc = 0x400100; to_pc = 0x400200 },
      {|{"ev": "chain_link", "from": 4194560, "to": 4194816}|} );
    ( Chain_sever { from_pc = 0x400200; to_pc = 0x400300 },
      {|{"ev": "chain_sever", "from": 4194816, "to": 4195072}|} );
    ( Ibl_hit { site = 0x400110; target = 0x400400 },
      {|{"ev": "ibl_hit", "site": 4194576, "target": 4195328}|} );
    ( Ibl_miss { site = 0x400110; target = 0x400500 },
      {|{"ev": "ibl_miss", "site": 4194576, "target": 4195584}|} );
    ( Trace_build { head = 0x400100; blocks = 5 },
      {|{"ev": "trace_build", "head": 4194560, "blocks": 5}|} );
    (Trace_teardown { head = 0x400100 }, {|{"ev": "trace_teardown", "head": 4194560}|});
    ( Trace_elide
        { head = 0x400100; insn = 0x400124; reason = "trace-streak"; witness = 0x400114 },
      {|{"ev": "trace_elide", "head": 4194560, "insn": 4194596, "reason": "trace-streak", "witness": 4194580}|}
    );
    ( Flush_range { start = 0x20000000; len = 64 },
      {|{"ev": "flush_range", "start": 536870912, "len": 64}|} );
    ( Module_load { name = "libc.so"; base = 0x10000000 },
      {|{"ev": "module_load", "name": "libc.so", "base": 268435456}|} );
    (Module_unload { name = "plugin.so" }, {|{"ev": "module_unload", "name": "plugin.so"}|});
    ( Dlopen { name = "plugin.so"; handle = 3 },
      {|{"ev": "dlopen", "name": "plugin.so", "handle": 3}|} );
    ( Dlclose { name = "plugin.so"; ok = true },
      {|{"ev": "dlclose", "name": "plugin.so", "ok": true}|} );
    ( Dlclose { name = "libc.so"; ok = false },
      {|{"ev": "dlclose", "name": "libc.so", "ok": false}|} );
    ( Plt_resolve { caller = 0x400120; target = 0x10000010 },
      {|{"ev": "plt_resolve", "caller": 4194592, "target": 268435472}|} );
    ( Shadow_poison { addr = 0x50000000; len = 32; state = 1 },
      {|{"ev": "shadow_poison", "addr": 1342177280, "len": 32, "state": 1}|} );
    ( Shadow_unpoison { addr = 0x50000000; len = 32 },
      {|{"ev": "shadow_unpoison", "addr": 1342177280, "len": 32}|} );
    ( Check_elide { insn = 0x400120; fn = 0x400100; reason = "dom"; witness = 0x400110 },
      {|{"ev": "check_elide", "insn": 4194592, "fn": 4194560, "reason": "dom", "witness": 4194576}|}
    );
    ( Violation
        {
          kind = "heap-overflow";
          addr = 0x50000020;
          pc = 0x400130;
          vmodule = "heap_ov";
          origin = Static;
        },
      {|{"ev": "violation", "kind": "heap-overflow", "addr": 1342177312, "pc": 4194608, "module": "heap_ov", "origin": "static"}|}
    );
    ( Cfi_table { name = "main"; entries = 12 },
      {|{"ev": "cfi_table", "name": "main", "entries": 12}|} );
    ( Store_hit { name = "libc.so"; source = "disk" },
      {|{"ev": "store_hit", "name": "libc.so", "source": "disk"}|} );
    (Store_miss { name = "main" }, {|{"ev": "store_miss", "name": "main"}|});
    (Store_evict { name = "libm.so" }, {|{"ev": "store_evict", "name": "libm.so"}|});
    ( Store_corrupt { name = "main"; why = "stale digest" },
      {|{"ev": "store_corrupt", "name": "main", "why": "stale digest"}|} );
    (Phase_begin { phase = Analyze }, {|{"ev": "phase_begin", "phase": "analyze"}|});
    ( Phase_end { phase = Run; host_s = 0.25; cycles = 1234 },
      {|{"ev": "phase_end", "phase": "run", "host_s": 0.250000, "cycles": 1234}|} );
  ]

let test_golden_lines () =
  List.iter
    (fun (ev, line) -> Alcotest.(check string) (kind_name ev) line (event_to_json ev))
    golden;
  Alcotest.(check int) "every constructor has a golden line" 26
    (List.length (List.sort_uniq compare (List.map (fun (ev, _) -> kind_name ev) golden)))

let test_jsonl_escaping () =
  (* quote, backslash, newline and a control byte; other bytes pass
     through unchanged *)
  Alcotest.(check string) "escaped name"
    {|{"ev": "module_load", "name": "a\"b\\c\nd\u0001e", "base": 1}|}
    (event_to_json (Module_load { name = "a\"b\\c\nd\001e"; base = 1 }))

let test_export_matches_events () =
  enable ~capacity:64 ();
  List.iter (fun (ev, _) -> emit ev) golden;
  let tmp = Filename.temp_file "jt_trace" ".jsonl" in
  let oc = open_out_bin tmp in
  export oc;
  close_out oc;
  let ic = open_in_bin tmp in
  let written = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check int) "every golden event buffered" (List.length golden)
    (List.length (events ()));
  Alcotest.(check string) "one rendered line per buffered event"
    (String.concat "" (List.map (fun ev -> event_to_json ev ^ "\n") (events ())))
    written

(* -- live wiring: a real run emits, a disabled run is bit-identical -- *)

let run_sum () =
  let m = Progs.sum_prog ~n:20 () in
  let tool, _ = Jt_jasan.Jasan.create () in
  Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"sum" ()

let test_live_emission_and_identity () =
  disable ();
  let off = run_sum () in
  enable ();
  let on_ = run_sum () in
  let counts = kind_counts () in
  disable ();
  let get k = try List.assoc k counts with Not_found -> 0 in
  Alcotest.(check bool) "block_translate events" true (get "block_translate" > 0);
  Alcotest.(check bool) "block_exec events" true (get "block_exec" > 0);
  Alcotest.(check bool) "chain_link events" true (get "chain_link" > 0);
  Alcotest.(check bool) "module_load events" true (get "module_load" > 0);
  Alcotest.(check bool) "phase_end events" true (get "phase_end" > 0);
  (* tracing only observes: simulated results are bit-identical *)
  Alcotest.(check bool) "results identical on/off" true
    (off.Janitizer.Driver.o_result = on_.Janitizer.Driver.o_result)

let test_violation_provenance () =
  enable ();
  let m = Progs.heap_overflow_prog () in
  let tool, _ = Jt_jasan.Jasan.create () in
  let o =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"heap_ov" ()
  in
  disable ();
  let vs = o.Janitizer.Driver.o_result.Jt_vm.Vm.r_violations in
  Alcotest.(check bool) "run reported a violation" true (vs <> []);
  let reported = List.hd vs in
  let traced =
    List.filter_map
      (function
        | Violation { kind; addr; pc = _; vmodule; origin } ->
          Some (kind, addr, vmodule, origin)
        | _ -> None)
      (events ())
  in
  match traced with
  | [] -> Alcotest.fail "no Violation event captured"
  | (kind, addr, vmodule, origin) :: _ ->
    Alcotest.(check string) "kind matches the VM report"
      reported.Jt_vm.Vm.v_kind kind;
    Alcotest.(check int) "addr matches" reported.Jt_vm.Vm.v_addr addr;
    Alcotest.(check string) "module resolved" "heap_ov" vmodule;
    Alcotest.(check bool) "hybrid run: block origin is static" true
      (origin = Static)

(* -- phase spans -- *)

let test_phase_spans () =
  enable ();
  let r =
    in_phase Analyze (fun () ->
        phase_add_cycles Analyze 100;
        41 + 1)
  in
  Alcotest.(check int) "in_phase passes the result through" 42 r;
  in_phase Analyze (fun () -> phase_add_cycles Analyze 11);
  let totals = phase_totals () in
  disable ();
  let a = List.find (fun p -> p.ps_phase = Analyze) totals in
  Alcotest.(check int) "two spans" 2 a.ps_spans;
  Alcotest.(check int) "cycles accumulated" 111 a.ps_cycles;
  Alcotest.(check bool) "host time non-negative" true (a.ps_host_s >= 0.0);
  let ends =
    List.filter_map
      (function Phase_end { phase = Analyze; cycles; _ } -> Some cycles | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "per-span cycles in Phase_end events" [ 100; 11 ]
    ends

(* -- entry accounting -- *)

let test_entry_accounting_holds_live () =
  (* [Dbt.run] asserts the identity itself; a run completing without
     [Invariant_failure] plus an explicit re-check here covers both. *)
  let m = Progs.sum_prog ~n:10 () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"sum";
  Jt_dbt.Dbt.run engine;
  let s = Jt_dbt.Dbt.stats engine in
  Alcotest.(check int) "identity balances"
    (s.Jt_dbt.Dbt.st_block_execs + s.st_decode_faults)
    (s.st_dispatch_entries + s.st_chain_hits + s.st_ibl_hits
   + s.st_trace_interior);
  Alcotest.(check int) "no decode faults on a clean program" 0
    s.st_decode_faults

let test_entry_accounting_decode_fault () =
  (* Jumping into unmapped memory builds an empty block: one dispatcher
     entry, zero executions — the identity only balances through
     [st_decode_faults]. *)
  let open Jt_asm.Builder in
  let m =
    build ~name:"wild" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [ func "main" [ Dsl.movi Jt_isa.Reg.r1 0x00DEAD00; Dsl.jmp_reg Jt_isa.Reg.r1 ] ]
  in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"wild";
  Jt_dbt.Dbt.run engine;
  let s = Jt_dbt.Dbt.stats engine in
  (match vm.Jt_vm.Vm.status with
  | Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault _) -> ()
  | _ -> Alcotest.fail "expected a decode fault");
  Alcotest.(check int) "one decode fault counted" 1 s.Jt_dbt.Dbt.st_decode_faults;
  Alcotest.(check int) "identity still balances"
    (s.st_block_execs + s.st_decode_faults)
    (s.st_dispatch_entries + s.st_chain_hits + s.st_ibl_hits
   + s.st_trace_interior)

let test_entry_accounting_seeded_mismatch () =
  (* balanced: fine *)
  entry_accounting ~dispatch:3 ~chain:4 ~ibl:2 ~trace_interior:1
    ~decode_faults:1 ~block_execs:9;
  (* seeded mismatch: must raise, enabled or not *)
  let fires () =
    match
      entry_accounting ~dispatch:3 ~chain:4 ~ibl:2 ~trace_interior:1
        ~decode_faults:0 ~block_execs:9
    with
    | () -> false
    | exception Invariant_failure _ -> true
  in
  Alcotest.(check bool) "mismatch raises while disabled" true (fires ());
  enable ();
  Alcotest.(check bool) "mismatch raises while enabled" true (fires ())

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick (isolated test_ring_wraparound);
          Alcotest.test_case "below capacity" `Quick
            (isolated test_ring_below_capacity);
          Alcotest.test_case "bad capacity" `Quick (isolated test_bad_capacity);
        ] );
      ( "disabled",
        [ Alcotest.test_case "no-op" `Quick (isolated test_disabled_noop) ] );
      ( "jsonl",
        [
          Alcotest.test_case "golden lines" `Quick (isolated test_golden_lines);
          Alcotest.test_case "escaping" `Quick (isolated test_jsonl_escaping);
          Alcotest.test_case "export" `Quick
            (isolated test_export_matches_events);
        ] );
      ( "wiring",
        [
          Alcotest.test_case "live emission + identity" `Quick
            (isolated test_live_emission_and_identity);
          Alcotest.test_case "violation provenance" `Quick
            (isolated test_violation_provenance);
          Alcotest.test_case "phase spans" `Quick (isolated test_phase_spans);
        ] );
      ( "entry-accounting",
        [
          Alcotest.test_case "holds on a live run" `Quick
            (isolated test_entry_accounting_holds_live);
          Alcotest.test_case "decode faults balance" `Quick
            (isolated test_entry_accounting_decode_fault);
          Alcotest.test_case "seeded mismatch fires" `Quick
            (isolated test_entry_accounting_seeded_mismatch);
        ] );
    ]
