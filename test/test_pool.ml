(* Jt_pool: result ordering, the leftmost failure re-raised after every
   job has run, empty and short inputs, and argument validation. *)

exception Boom of int

let test_map_ordering () =
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun x -> x * x) xs)
    (Jt_pool.Pool.run ~jobs:3 (fun x -> x * x) xs)

let test_run_ordering_uneven_work () =
  (* Completion order differs from input order when early jobs are the
     heavy ones; [run]'s contract is input order regardless. *)
  let work x =
    let n = if x mod 2 = 0 then 200_000 else 10 in
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc + i) land 0xFFFF
    done;
    (x, !acc land 0)
  in
  let xs = List.init 16 Fun.id in
  let ys = Jt_pool.Pool.run ~jobs:3 work xs in
  Alcotest.(check (list int)) "uneven work, stable order" xs (List.map fst ys)

let test_leftmost_failure () =
  (* Every job runs even though the second one raises: the counter sees
     all six side effects before the leftmost [Boom] reaches the caller. *)
  let ran = Atomic.make 0 in
  let job x =
    Atomic.incr ran;
    if x mod 2 = 0 then raise (Boom x) else x
  in
  (match Jt_pool.Pool.run ~jobs:2 job [ 1; 2; 3; 4; 5; 6 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> Alcotest.(check int) "leftmost failing job wins" 2 x);
  Alcotest.(check int) "every job ran" 6 (Atomic.get ran)

let test_empty () =
  Alcotest.(check (list int)) "no jobs, no results" []
    (Jt_pool.Pool.run ~jobs:2 (fun _ -> Alcotest.fail "no job to run") [])

let test_more_jobs_than_items () =
  (* Three domains at most for three items, and none of them is the
     caller's. *)
  let self = Domain.self () in
  let on_worker =
    Jt_pool.Pool.run ~jobs:8 (fun x -> (x, Domain.self () <> self)) [ 7; 8; 9 ]
  in
  Alcotest.(check (list int)) "results" [ 7; 8; 9 ] (List.map fst on_worker);
  Alcotest.(check bool) "jobs ran off the caller's domain" true
    (List.for_all snd on_worker)

let test_validation () =
  match Jt_pool.Pool.run ~jobs:0 Fun.id [ 1 ] with
  | _ -> Alcotest.fail "jobs:0 must raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "pool"
    [
      ( "ordering",
        [
          Alcotest.test_case "map input order" `Quick test_map_ordering;
          Alcotest.test_case "uneven work" `Quick test_run_ordering_uneven_work;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "map leftmost failure" `Quick
            test_leftmost_failure;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "empty list" `Quick test_empty;
          Alcotest.test_case "more jobs than items" `Quick
            test_more_jobs_than_items;
          Alcotest.test_case "create validation" `Quick test_validation;
        ] );
    ]
