(* Differential soundness fuzzer: a small deterministic slice of the
   suite the bench runs at full size.  The oracle itself (expected
   detection matrix, bit-identical observables, exact icount
   accounting) lives inside [Jt_fuzz.Fuzz]; these tests assert it holds
   and that the generator is reproducible. *)

open Jt_fuzz

let test_suite_sound () =
  let r = Fuzz.run_suite ~base_seed:1 ~seeds:6 () in
  Alcotest.(check int) "cases" 36 r.rp_cases;
  Alcotest.(check int)
    "runs = cases x schemes"
    (36 * List.length Fuzz.schemes)
    r.rp_runs;
  List.iter
    (fun (m : Fuzz.mismatch) ->
      Printf.printf "MISMATCH %s %s: %s\n" m.mm_case m.mm_scheme m.mm_what)
    r.rp_mismatches;
  Alcotest.(check int) "zero soundness mismatches" 0 (List.length r.rp_mismatches)

let row r scheme =
  List.find (fun (x : Fuzz.matrix_row) -> x.mx_scheme = scheme) r.Fuzz.rp_matrix

let test_matrix_shape () =
  (* 6 seeds -> 6 benign + 30 injected cases; PIC on odd seed index *)
  let r = Fuzz.run_suite ~base_seed:1 ~seeds:6 () in
  let check scheme ~tp ~fn ~tn ~fp ~refused =
    let x = row r scheme in
    Alcotest.(check (list int))
      (scheme ^ " row")
      [ tp; fn; tn; fp; refused ]
      [ x.mx_tp; x.mx_fn; x.mx_tn; x.mx_fp; x.mx_refused ]
  in
  check "native" ~tp:0 ~fn:30 ~tn:6 ~fp:0 ~refused:0;
  check "jasan-hybrid" ~tp:30 ~fn:0 ~tn:6 ~fp:0 ~refused:0;
  check "jasan-emitted" ~tp:30 ~fn:0 ~tn:6 ~fp:0 ~refused:0;
  (* stack smashes are the Valgrind-class FNs: no canary tracking *)
  check "valgrind" ~tp:24 ~fn:6 ~tn:6 ~fp:0 ~refused:0;
  (* non-PIC mains refuse: 3 seeds x 6 cases *)
  check "retrowrite" ~tp:15 ~fn:0 ~tn:3 ~fp:0 ~refused:18;
  check "lockdown" ~tp:0 ~fn:30 ~tn:6 ~fp:0 ~refused:0;
  check "bincfi" ~tp:0 ~fn:30 ~tn:6 ~fp:0 ~refused:0

let test_deterministic () =
  let a = Fuzz.run_suite ~base_seed:7 ~seeds:2 () in
  let b = Fuzz.run_suite ~base_seed:7 ~seeds:2 () in
  Alcotest.(check bool) "same seed, same report" true (a = b);
  let g1 = Fuzz.build { fz_seed = 7; fz_pic = false; fz_inject = None } in
  let g2 = Fuzz.build { fz_seed = 7; fz_pic = false; fz_inject = None } in
  Alcotest.(check string)
    "same seed, same program" (Jt_obj.Objfile.digest g1)
    (Jt_obj.Objfile.digest g2);
  let g3 = Fuzz.build { fz_seed = 8; fz_pic = false; fz_inject = None } in
  Alcotest.(check bool)
    "different seed, different program" true
    (Jt_obj.Objfile.digest g1 <> Jt_obj.Objfile.digest g3)

(* every injection kind is detectable in isolation by the hybrid, with
   exactly its expected kind *)
let test_each_injection_kind () =
  List.iter
    (fun inj ->
      let c = { Fuzz.fz_seed = 3; fz_pic = false; fz_inject = Some inj } in
      let m = Fuzz.build c in
      match Fuzz.run_scheme Fuzz.Hybrid m with
      | Fuzz.Refused why -> Alcotest.failf "hybrid refused: %s" why
      | Fuzz.Ran (r, _) ->
        let kinds =
          List.sort_uniq compare
            (List.map (fun v -> v.Jt_vm.Vm.v_kind) r.r_violations)
        in
        Alcotest.(check (list string))
          (Fuzz.inject_name inj)
          [ Fuzz.expected_kind inj ]
          kinds)
    Fuzz.injections

let test_rng_stable () =
  (* pin the splitmix64 stream: regenerating old seeds must never
     silently change the corpus *)
  let r = Fuzz.Rng.make 42 in
  let draws = List.init 6 (fun _ -> Fuzz.Rng.int r 1000) in
  Alcotest.(check (list int)) "stream" [ 706; 145; 929; 882; 625; 531 ] draws

(* Scheme names are keys: BENCH_fuzz.json and perfbench spans carry the
   fuzz schemes' names, BENCH_sweep.json the sweep's. *)
let test_scheme_names () =
  let module Scheme = Jt_schemes.Scheme in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Scheme.name s ^ " round-trips") true
        (Scheme.of_string (Scheme.name s) = Some s))
    Scheme.all;
  let names = List.map Scheme.name Scheme.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "unknown name" true (Scheme.of_string "jasan" = None);
  Alcotest.(check (list string))
    "fuzz names"
    [ "native"; "jasan-hybrid"; "jasan-emitted"; "valgrind"; "retrowrite"; "lockdown";
      "bincfi" ]
    (List.map Fuzz.scheme_name Fuzz.schemes);
  List.iter
    (fun s ->
      Alcotest.(check string) "fuzz name is the table's" (Fuzz.scheme_name s)
        (Scheme.name (Fuzz.to_scheme s)))
    Fuzz.schemes

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          Alcotest.test_case "36-case suite is sound" `Slow test_suite_sound;
          Alcotest.test_case "matrix shape" `Slow test_matrix_shape;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "each injection kind" `Quick test_each_injection_kind;
          Alcotest.test_case "rng stream pinned" `Quick test_rng_stable;
        ] );
      ("schemes", [ Alcotest.test_case "names" `Quick test_scheme_names ]);
    ]
