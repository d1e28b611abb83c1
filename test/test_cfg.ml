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
    (Jt_cfg.Cfg.block_index main_fn leaf_addr >= 0)

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
  Array.iter
    (fun (b : Jt_cfg.Cfg.block) ->
      let a = b.b_addr in
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
    Array.exists
      (fun (b : Jt_cfg.Cfg.block) ->
        match b.b_term with
        | Jt_cfg.Cfg.Tcall (_, ret) -> List.mem ret b.b_succs
        | _ -> false)
      fn.f_blocks
  in
  Alcotest.(check bool) "call falls through to return site" true has_call_block

let test_counts () =
  let m = loopy_module () in
  let cfg = cfg_of m in
  Alcotest.(check bool) "blocks" true (Jt_cfg.Cfg.block_count cfg >= 6);
  Alcotest.(check bool) "insns" true (Jt_cfg.Cfg.insn_count cfg >= 12)

(* ---- the indexed passes against their address-keyed references ---- *)

module Sa = Janitizer.Static_analyzer

(* Every function of the module: blocks and loops ascending, each
   block's idom and the natural loops as {!Dom_ref} computes them, and
   every instruction's live-before as {!Live_ref} computes it (with the
   calling-convention treatment [Static_analyzer] picks).  Returns the
   number of instructions checked. *)
let check_against_references (m : Jt_obj.Objfile.t) =
  let sa = Sa.compute m in
  let call_summary, exit_all_live =
    if sa.sa_reliable_conventions then ((fun _ -> None), false)
    else
      let s = Jt_analysis.Interproc.summaries sa.sa_cfg in
      ( (fun e ->
          Option.map
            (fun (x : Jt_analysis.Interproc.summary) -> (x.ip_clobbers, x.ip_reads))
            (Hashtbl.find_opt s e)),
        true )
  in
  let checked = ref 0 in
  List.iter
    (fun (fa : Sa.fn_analysis) ->
      let fn = fa.fa_fn in
      let where = Printf.sprintf "%s fn 0x%x" m.name fn.f_entry in
      let addrs =
        List.map (fun (b : Jt_cfg.Cfg.block) -> b.b_addr) (Jt_cfg.Cfg.fn_blocks fn)
      in
      let heads = List.map (fun (l : Jt_cfg.Cfg.loop) -> l.l_head) fn.f_loops in
      let ascending l = l = List.sort_uniq compare l in
      if not (ascending addrs) then Alcotest.failf "%s: blocks not ascending" where;
      if not (ascending heads) then Alcotest.failf "%s: loops not ascending" where;
      let idoms = Dom_ref.idoms fn in
      List.iter
        (fun a ->
          if Jt_cfg.Domtree.idom fn.f_dom a <> Hashtbl.find_opt idoms a then
            Alcotest.failf "%s: idom of block 0x%x" where a)
        addrs;
      let loops =
        List.map
          (fun (l : Jt_cfg.Cfg.loop) -> (l.l_head, Jt_cfg.Cfg.Iset.elements l.l_body))
          fn.f_loops
      in
      if loops <> Dom_ref.loops fn then Alcotest.failf "%s: natural loops" where;
      let facts = Live_ref.analyze ~call_summary ~exit_all_live fn in
      Array.iter
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.iter
            (fun (i : Jt_disasm.Disasm.insn_info) ->
              incr checked;
              let regs, flags =
                Jt_analysis.Liveness.live_before fa.fa_liveness i.d_addr
              in
              let regs', flags' = Live_ref.live_before facts i.d_addr in
              if regs <> regs' || not (Flags.equal flags flags') then
                Alcotest.failf "%s: live before 0x%x" where i.d_addr)
            b.b_insns)
        fn.f_blocks)
    sa.sa_fns;
  !checked

let check_corpus modules () =
  let n = List.fold_left (fun n m -> n + check_against_references m) 0 (modules ()) in
  Alcotest.(check bool) "instructions checked" true (n > 0)

let registry_modules = Corpus.registry_modules
let cold_modules = Corpus.cold_modules
let fuzz_modules = Corpus.fuzz_modules

(* A random instruction sequence as the body of [main], its direct
   branch and call targets redirected into the sequence: mostly to an
   instruction start, sometimes into the middle of one, so decode runs
   re-synchronize and blocks overlap. *)
let random_program seed =
  let rand = Random.State.make [| seed |] in
  let insns =
    QCheck2.Gen.(generate1 ~rand (list_size (int_range 4 48) Gen_isa.gen_insn))
    |> Array.of_list
  in
  let offs = Array.make (Array.length insns + 1) 0 in
  Array.iteri (fun k i -> offs.(k + 1) <- offs.(k) + Encode.length i) insns;
  let size = offs.(Array.length insns) in
  let module_of code =
    build ~name:(Printf.sprintf "gen_isa_%d" seed) ~kind:Jt_obj.Objfile.Exec_nonpic
      ~entry:"main" [ func "main" [ Bytes code ] ]
  in
  let base =
    (Jt_obj.Objfile.find_symbol (module_of (String.make size '\000')) "main"
    |> Option.get).vaddr
  in
  let target () =
    if Random.State.int rand 4 = 0 then base + Random.State.int rand size
    else base + offs.(Random.State.int rand (Array.length insns))
  in
  let code = Buffer.create size in
  Array.iteri
    (fun k i ->
      let i =
        match (i : Insn.t) with
        | Jmp _ -> Insn.Jmp (target ())
        | Jcc (c, _) -> Insn.Jcc (c, target ())
        | Call _ -> Insn.Call (target ())
        | i -> i
      in
      Encode.to_buffer code ~at:(base + offs.(k)) i)
    insns;
  module_of (Buffer.contents code)

let random_modules () = List.init 200 random_program

let test_random_programs_overlap () =
  (* the generator does reach the overlapping-block case *)
  let overlapping (m : Jt_obj.Objfile.t) =
    let cfg = cfg_of m in
    let seen = Hashtbl.create 64 in
    Array.exists
      (fun (b : Jt_cfg.Cfg.block) ->
        Array.exists
          (fun (i : Jt_disasm.Disasm.insn_info) ->
            Hashtbl.mem seen i.d_addr || (Hashtbl.replace seen i.d_addr (); false))
          b.b_insns)
      cfg.c_blocks
  in
  Alcotest.(check bool) "some program has an instruction in two blocks" true
    (List.exists overlapping (random_modules ()))

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
      ( "reference",
        [
          Alcotest.test_case "registry and libraries" `Quick
            (check_corpus registry_modules);
          Alcotest.test_case "cold ladder" `Quick (check_corpus cold_modules);
          Alcotest.test_case "fuzz mains" `Quick (check_corpus fuzz_modules);
          Alcotest.test_case "gen_isa programs" `Quick (check_corpus random_modules);
          Alcotest.test_case "gen_isa overlap" `Quick test_random_programs_overlap;
        ] );
    ]
