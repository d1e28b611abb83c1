(* CFG construction: blocks, functions, dominators, natural loops. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let loopy_module () =
  build ~name:"loopy" ~kind:Jt_obj.Objfile.Exec_nonpic ~entry:"main"
    [
      func "leaf" [ addi Reg.r0 2; ret ];
      func "main"
        [
          movi Reg.r1 0;
          label "head";
          cmpi Reg.r1 10;
          jcc Insn.Ge "done";
          call "leaf";
          addi Reg.r1 1;
          jmp "head";
          label "done";
          movi Reg.r0 0;
          syscall Sysno.exit_;
        ];
    ]

let cfg_of m = Jt_cfg.Cfg.build (Jt_disasm.Disasm.run m)

let find_fn cfg name_addr = Jt_cfg.Cfg.fn_at cfg name_addr |> Option.get

let test_functions_partitioned () =
  let m = loopy_module () in
  let cfg = cfg_of m in
  (* _init, _fini, leaf, main *)
  Alcotest.(check int) "4 fns" 4 (List.length (Jt_cfg.Cfg.functions cfg));
  let main_addr = (Jt_obj.Objfile.find_symbol m "main" |> Option.get).vaddr in
  let leaf_addr = (Jt_obj.Objfile.find_symbol m "leaf" |> Option.get).vaddr in
  let main_fn = find_fn cfg main_addr in
  Alcotest.(check (option string)) "name" (Some "main") main_fn.f_name;
  (* leaf's block is not part of main even though main calls it *)
  Alcotest.(check bool)
    "call target excluded" false
    (Hashtbl.mem main_fn.f_blocks leaf_addr)

let test_loop_detection () =
  let m = loopy_module () in
  let cfg = cfg_of m in
  let main_addr = (Jt_obj.Objfile.find_symbol m "main" |> Option.get).vaddr in
  let fn = find_fn cfg main_addr in
  match fn.f_loops with
  | [ l ] ->
    Alcotest.(check bool) "body >= 2 blocks" true (Jt_cfg.Cfg.Iset.cardinal l.l_body >= 2);
    Alcotest.(check bool) "head in body" true (Jt_cfg.Cfg.Iset.mem l.l_head l.l_body)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_dominators () =
  let m = loopy_module () in
  let cfg = cfg_of m in
  let main_addr = (Jt_obj.Objfile.find_symbol m "main" |> Option.get).vaddr in
  let fn = find_fn cfg main_addr in
  let dt = fn.f_dom in
  Alcotest.(check int) "tree entry" fn.f_entry (Jt_cfg.Domtree.entry dt);
  (* the entry dominates every block, and every idom chain ends at it *)
  let rec root a =
    match Jt_cfg.Domtree.idom dt a with None -> a | Some p -> root p
  in
  Hashtbl.iter
    (fun a _ ->
      Alcotest.(check bool)
        (Printf.sprintf "entry dominates %x" a)
        true
        (Jt_cfg.Domtree.dominates dt fn.f_entry a);
      Alcotest.(check int)
        (Printf.sprintf "chain of %x ends at the entry" a)
        fn.f_entry
        (root a))
    fn.f_blocks;
  (* the loop head dominates its body *)
  match fn.f_loops with
  | [ l ] ->
    Jt_cfg.Cfg.Iset.iter
      (fun a ->
        Alcotest.(check bool)
          (Printf.sprintf "head dominates %x" a)
          true
          (Jt_cfg.Domtree.dominates dt l.l_head a))
      l.l_body
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_call_edges_are_fallthrough () =
  let m = loopy_module () in
  let cfg = cfg_of m in
  let main_addr = (Jt_obj.Objfile.find_symbol m "main" |> Option.get).vaddr in
  let fn = find_fn cfg main_addr in
  let has_call_block =
    Hashtbl.fold
      (fun _ (b : Jt_cfg.Cfg.block) acc ->
        acc
        ||
        match b.b_term with
        | Jt_cfg.Cfg.Tcall (_, ret) -> List.mem ret b.b_succs
        | _ -> false)
      fn.f_blocks false
  in
  Alcotest.(check bool) "call falls through to return site" true has_call_block

let test_counts () =
  let m = loopy_module () in
  let cfg = cfg_of m in
  Alcotest.(check bool) "blocks" true (Jt_cfg.Cfg.block_count cfg >= 6);
  Alcotest.(check bool) "insns" true (Jt_cfg.Cfg.insn_count cfg >= 12)

let () =
  Alcotest.run "cfg"
    [
      ( "structure",
        [
          Alcotest.test_case "functions" `Quick test_functions_partitioned;
          Alcotest.test_case "loops" `Quick test_loop_detection;
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "call edges" `Quick test_call_edges_are_fallthrough;
          Alcotest.test_case "counts" `Quick test_counts;
        ] );
    ]
