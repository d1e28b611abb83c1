(* Metrics: geomean guarding against non-positive cells (which used to
   poison the whole summary row through [log]), and the domain-local
   JASan counters. *)

let geomean = Jt_metrics.Metrics.geomean

let test_geomean_empty () =
  Alcotest.(check (float 1e-9)) "empty list" 0.0 (geomean [])

let test_geomean_all_positive () =
  Alcotest.(check (float 1e-9)) "2,8 -> 4" 4.0 (geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 3.5 (geomean [ 3.5 ])

let test_geomean_skips_nonpositive () =
  (* pre-fix: log 0. = -inf collapsed the mean to 0, log of a negative
     made it nan *)
  let g = geomean [ 0.0; 2.0; 8.0 ] in
  Alcotest.(check bool) "finite with a zero cell" true (Float.is_finite g);
  Alcotest.(check (float 1e-9)) "zero skipped" 4.0 g;
  let g = geomean [ -3.0; 5.0 ] in
  Alcotest.(check bool) "finite with a negative cell" true (Float.is_finite g);
  Alcotest.(check (float 1e-9)) "negative skipped" 5.0 g;
  Alcotest.(check (float 1e-9)) "all non-positive" 0.0 (geomean [ 0.0; -1.0 ])

let test_counters_reset_snapshot () =
  let open Jt_metrics.Metrics.Counters in
  reset ();
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed") 0 v)
    (snapshot ());
  let c = current () in
  c.c_san_checks <- 7;
  c.c_san_trace_elide_ind <- 2;
  Alcotest.(check int) "checks read back" 7
    (List.assoc "san_checks" (snapshot ()));
  Alcotest.(check int) "trace induction elisions read back" 2
    (List.assoc "san_trace_elide_ind" (snapshot ()));
  reset ();
  Alcotest.(check int) "reset" 0 (List.assoc "san_checks" (snapshot ()))

let test_counters_instrument_dispatch () =
  let open Jt_metrics.Metrics.Counters in
  reset ();
  let m = Progs.sum_prog ~n:50 () in
  let vm = Jt_vm.Vm.make ~registry:(Progs.registry_for m) () in
  let engine = Jt_dbt.Dbt.create ~vm () in
  Jt_vm.Vm.boot vm ~main:"sum";
  Jt_dbt.Dbt.run engine;
  (* dispatch work is counted once, in the engine's own stats; a run
     without JASan leaves every counter at zero *)
  let s = Jt_dbt.Dbt.stats engine in
  Alcotest.(check bool) "dispatcher entries counted" true
    (s.st_dispatch_entries > 0);
  Alcotest.(check bool) "chain hits counted" true (s.st_chain_hits > 0);
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " untouched") 0 v)
    (snapshot ());
  reset ()

(* ---- the JSON printer every bench report goes through ---- *)

let json = Jt_metrics.Json.to_string

let test_json_string_escaping () =
  Alcotest.(check string) "quote, backslash, newline, control byte"
    {|"a\"b\\c\nd\u0001"|}
    (json (Jt_metrics.Json.String "a\"b\\c\nd\x01"));
  Alcotest.(check string) "object keys are escaped too" "{\n  \"k\\\"\": 1\n}"
    (json (Jt_metrics.Json.Obj [ ("k\"", Jt_metrics.Json.Int 1) ]))

let test_json_fixed_floats () =
  let open Jt_metrics.Json in
  Alcotest.(check string) "1 digit" "45.0" (json (Float (1, 45.0)));
  Alcotest.(check string) "4 digits" "0.9600" (json (Float (4, 0.96)));
  Alcotest.(check string) "3 digits" "1.000" (json (Float (3, 1.0)));
  Alcotest.(check string) "non-finite is null" "null" (json (Float (2, nan)))

let test_json_null_and_empty () =
  let open Jt_metrics.Json in
  Alcotest.(check string) "null" "null" (json Null);
  Alcotest.(check string) "empty list" "[]" (json (List []));
  Alcotest.(check string) "empty row list stays inline"
    "{\n  \"failures\": [],\n  \"ok\": true\n}"
    (json (Obj [ ("failures", List []); ("ok", Bool true) ]))

let test_json_row_layout () =
  let open Jt_metrics.Json in
  let row name n =
    Obj [ ("name", String name); ("stats", Obj [ ("n", Int n); ("hist", List [ Int n ]) ]) ]
  in
  Alcotest.(check string) "one row per line, nested values inline"
    "{\n\
    \  \"target\": \"t\",\n\
    \  \"pair\": {\"a\": 1, \"b\": [2, 3]},\n\
    \  \"workloads\": [\n\
    \    {\"name\": \"x\", \"stats\": {\"n\": 1, \"hist\": [1]}},\n\
    \    {\"name\": \"y\", \"stats\": {\"n\": 2, \"hist\": [2]}}\n\
    \  ]\n\
     }"
    (json
       (Obj
          [ ("target", String "t");
            ("pair", Obj [ ("a", Int 1); ("b", List [ Int 2; Int 3 ]) ]);
            ("workloads", List [ row "x" 1; row "y" 2 ]) ]))

(* ---- figure tables: a failed cell prints as x, its reason below ---- *)

let capture_stdout f =
  let path = Filename.temp_file "metrics" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin path in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  out

let test_table_failure_reasons () =
  let open Jt_metrics.Metrics in
  let t =
    {
      t_title = "Fig";
      t_unit = "slowdown";
      t_cols = [ "jasan"; "retrowrite" ];
      t_rows =
        [
          ("bzip2", [ Value 1.5; Fail "needs-pic:bzip2" ]);
          ("gcc", [ Fail "-"; Value 2.0 ]);
        ];
    }
  in
  Alcotest.(check (list string)) "one line per refusal, placeholders skipped"
    [ "bzip2/retrowrite: needs-pic:bzip2" ] (failure_reasons t);
  let lines = String.split_on_char '\n' (capture_stdout (fun () -> print t)) in
  (* rows as before: 12-wide names, 14-wide cells, x for a failure *)
  Alcotest.(check bool) "bzip2 row" true
    (List.mem (Printf.sprintf "%-12s%14.2f%14s" "bzip2" 1.5 "x") lines);
  Alcotest.(check bool) "gcc row" true
    (List.mem (Printf.sprintf "%-12s%14s%14.2f" "gcc" "x" 2.0) lines);
  Alcotest.(check (list string)) "reasons follow the summary rows"
    [ "bzip2/retrowrite: needs-pic:bzip2"; "" ]
    (List.filteri (fun k _ -> k >= List.length lines - 2) lines)

let () =
  Alcotest.run "metrics"
    [
      ( "geomean",
        [
          Alcotest.test_case "empty" `Quick test_geomean_empty;
          Alcotest.test_case "all positive" `Quick test_geomean_all_positive;
          Alcotest.test_case "non-positive skipped" `Quick
            test_geomean_skips_nonpositive;
        ] );
      ( "counters",
        [
          Alcotest.test_case "reset/snapshot" `Quick test_counters_reset_snapshot;
          Alcotest.test_case "dispatch instrumentation" `Quick
            test_counters_instrument_dispatch;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
          Alcotest.test_case "fixed-digit floats" `Quick test_json_fixed_floats;
          Alcotest.test_case "null and empty list" `Quick test_json_null_and_empty;
          Alcotest.test_case "row layout" `Quick test_json_row_layout;
        ] );
      ( "table",
        [ Alcotest.test_case "failure reasons" `Quick test_table_failure_reasons ] );
    ]
