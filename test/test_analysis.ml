(* Helper analyses: liveness, canary detection, SCEV, def-use. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let analyze_main funcs =
  let m =
    build ~name:"anl" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main" funcs
  in
  let sa = Janitizer.Static_analyzer.analyze m in
  let main_addr = (Jt_obj.Objfile.find_symbol m "main" |> Option.get).vaddr in
  ( m,
    sa,
    List.find
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        fa.fa_fn.Jt_cfg.Cfg.f_entry = main_addr)
      sa.sa_fns )

(* Address of the k-th instruction of the function (by disassembly order). *)
let insn_addrs (fa : Janitizer.Static_analyzer.fn_analysis) =
  List.concat_map
    (fun (b : Jt_cfg.Cfg.block) ->
      Array.to_list (Array.map (fun i -> i.Jt_disasm.Disasm.d_addr) b.b_insns))
    (Jt_cfg.Cfg.fn_blocks fa.fa_fn)
  |> List.sort compare

let test_liveness_dead_after_last_use () =
  (* r1 dies after the mov r0, r1; flags die after the jcc consumer. *)
  let _, _, fa =
    analyze_main
      [
        func "main"
          [
            movi Reg.r1 5;
            cmpi Reg.r1 3;
            jcc Insn.Gt "big";
            label "big";
            mov Reg.r0 Reg.r1;
            (* here r1 is dead *)
            movi Reg.r2 0;
            syscall Sysno.exit_;
          ];
      ]
  in
  let addrs = insn_addrs fa in
  let live = fa.fa_liveness in
  (* before `mov r0, r1` (4th insn): flags have no remaining reader, and
     r3 was never live.  (r1 itself stays live: the exit syscall
     conservatively reads the argument registers.) *)
  let at = List.nth addrs 3 in
  Alcotest.(check bool)
    "r3 dead" true
    (List.exists (Reg.equal Reg.r3) (Jt_analysis.Liveness.dead_regs_before live at));
  Alcotest.(check bool) "flags dead" true
    (Jt_analysis.Liveness.flags_dead_before live at);
  (* before the jcc (3rd insn), flags are live *)
  let at_jcc = List.nth addrs 2 in
  Alcotest.(check bool) "flags live at jcc" false
    (Jt_analysis.Liveness.flags_dead_before live at_jcc)

let test_liveness_across_blocks () =
  (* r6 set in entry, used after the loop: must stay live through it. *)
  let _, _, fa =
    analyze_main
      [
        func "main"
          [
            movi Reg.r6 42;
            movi Reg.r1 0;
            label "head";
            cmpi Reg.r1 4;
            jcc Insn.Ge "done";
            addi Reg.r1 1;
            jmp "head";
            label "done";
            mov Reg.r0 Reg.r6;
            syscall Sysno.exit_;
          ];
      ]
  in
  let addrs = insn_addrs fa in
  let live = fa.fa_liveness in
  (* inside the loop (the addi, 5th insn), r6 is live *)
  let at = List.nth addrs 4 in
  Alcotest.(check bool)
    "r6 live in loop" false
    (List.exists (Reg.equal Reg.r6) (Jt_analysis.Liveness.dead_regs_before live at))

let test_liveness_conservative_fallback () =
  let _, _, fa =
    analyze_main [ func "main" [ movi Reg.r0 0; syscall Sysno.exit_ ] ]
  in
  let c = Jt_analysis.Liveness.conservative fa.fa_fn in
  let addrs = insn_addrs fa in
  Alcotest.(check (list bool))
    "nothing dead" []
    (List.filter_map
       (fun a ->
         if Jt_analysis.Liveness.dead_regs_before c a <> [] then Some true else None)
       addrs)

let test_canary_detection () =
  let _, _, fa =
    analyze_main
      [
        func "main"
          (Abi.frame_enter ~canary:true ~locals:16 ()
          @ [ sti (Abi.local 16 0) 1 ]
          @ Abi.frame_leave ~canary:true ~locals:16 ()
          @ [ movi Reg.r0 0; syscall Sysno.exit_ ]);
      ]
  in
  match fa.fa_canaries with
  | [ site ] ->
    Alcotest.(check int) "slot at fp-4" (-4) site.c_slot_disp;
    Alcotest.(check int) "one check load" 1 (List.length site.c_check_loads)
  | l -> Alcotest.failf "expected 1 canary site, got %d" (List.length l)

let test_scev_hoistable_loop () =
  let _, _, fa =
    analyze_main
      [
        func "main"
          [
            movi Reg.r6 0x5000_0000;
            movi Reg.r1 0;
            label "head";
            cmpi Reg.r1 8;
            jcc Insn.Ge "done";
            st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
            addi Reg.r1 1;
            jmp "head";
            label "done";
            movi Reg.r0 0;
            syscall Sysno.exit_;
          ];
      ]
  in
  match fa.fa_scev with
  | [ s ] ->
    Alcotest.(check int) "init 0" 0 s.ls_init;
    Alcotest.(check bool) "imm bound" true (s.ls_bound = Jt_analysis.Scev.Bimm 8);
    Alcotest.(check int) "one affine access" 1 (List.length s.ls_affine)
  | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)

let test_scev_bails () =
  (* register bound, step 2, and jne-style loops must all bail *)
  let bail_cases =
    [
      (* register bound *)
      [
        movi Reg.r2 8; movi Reg.r1 0; label "h"; cmp Reg.r1 Reg.r2;
        jcc Insn.Ge "d"; st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
        addi Reg.r1 1; jmp "h"; label "d"; movi Reg.r0 0; syscall Sysno.exit_;
      ];
      (* step 2 *)
      [
        movi Reg.r1 0; label "h"; cmpi Reg.r1 8; jcc Insn.Ge "d";
        st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1; addi Reg.r1 2; jmp "h";
        label "d"; movi Reg.r0 0; syscall Sysno.exit_;
      ];
      (* jne loop shape *)
      [
        movi Reg.r1 0; label "h"; cmpi Reg.r1 8; jcc Insn.Eq "d";
        st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1; addi Reg.r1 1; jmp "h";
        label "d"; movi Reg.r0 0; syscall Sysno.exit_;
      ];
    ]
  in
  List.iteri
    (fun i body ->
      let _, _, fa = analyze_main [ func "main" body ] in
      Alcotest.(check int) (Printf.sprintf "case %d bails" i) 0
        (List.length fa.fa_scev))
    bail_cases

let test_defuse_traces_malloc () =
  let _, _, fa =
    analyze_main
      [
        func "main"
          [
            movi Reg.r0 32;
            call_import "malloc";
            mov Reg.r6 Reg.r0;
            addi Reg.r6 8;
            st (mem_b ~disp:0 Reg.r6) Reg.r0;
            movi Reg.r0 0;
            syscall Sysno.exit_;
          ];
      ]
  in
  let du = Jt_analysis.Defuse.analyze fa.fa_fn in
  let addrs = insn_addrs fa in
  (* at the store (5th insn), r6 derives from the call (allocation site) *)
  let at_store = List.nth addrs 4 in
  let from_call =
    Jt_analysis.Defuse.traces_to du at_store Reg.r6 ~pred:(fun i ->
        match i with Insn.Call _ -> true | _ -> false)
  in
  Alcotest.(check bool) "r6 from malloc" true from_call;
  (* r1 is unrelated *)
  let from_call_r1 =
    Jt_analysis.Defuse.traces_to du at_store Reg.r1 ~pred:(fun i ->
        match i with Insn.Call _ -> true | _ -> false)
  in
  Alcotest.(check bool) "r1 unrelated" false from_call_r1

let test_interproc_summaries () =
  (* leaf touches only r1; mid calls leaf; main calls mid.  The clobber
     summary of mid must be exactly {r1} ∪ mid's own writes, letting
     liveness keep r4 dead across the calls even without trusting the
     calling convention. *)
  let m =
    build ~name:"ipa" ~kind:Jt_obj.Objfile.Exec_nonpic
      ~features:[ Jt_obj.Objfile.Breaks_calling_convention ] ~entry:"main"
      [
        func "leaf" [ addi Reg.r1 1; ret ];
        func "mid" [ call "leaf"; addi Reg.r2 1; ret ];
        func "main"
          [
            movi Reg.r4 7;
            call "mid";
            mov Reg.r0 Reg.r4;
            syscall Sysno.exit_;
          ];
      ]
  in
  let cfg = Jt_cfg.Cfg.build (Jt_disasm.Disasm.run m) in
  let summaries = Jt_analysis.Interproc.summaries cfg in
  let addr_of name = (Jt_obj.Objfile.find_symbol m name |> Option.get).vaddr in
  let mid = Hashtbl.find summaries (addr_of "mid") in
  let mask rs = Jt_analysis.Liveness.reg_mask rs in
  Alcotest.(check bool)
    "mid clobbers r1,r2 (+sp), not r4" true
    (mid.ip_clobbers land mask [ Reg.r4 ] = 0
    && mid.ip_clobbers land mask [ Reg.r1; Reg.r2 ] = mask [ Reg.r1; Reg.r2 ]);
  (* calling something with an indirect call is summarized as everything *)
  let sa = Janitizer.Static_analyzer.analyze m in
  let main_fa =
    List.find
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        fa.fa_fn.Jt_cfg.Cfg.f_entry = addr_of "main")
      sa.sa_fns
  in
  (* at `mov r0, r4` (after the call), r5 is dead; and r4 was not
     clobbered so the value flows — check r5 deadness as the liveness
     witness *)
  let mov_addr =
    let b = Jt_cfg.Cfg.fn_blocks main_fa.fa_fn in
    List.concat_map
      (fun (b : Jt_cfg.Cfg.block) ->
        Array.to_list
          (Array.map (fun i -> (i.Jt_disasm.Disasm.d_addr, i.d_insn)) b.b_insns))
      b
    |> List.find_map (fun (a, i) ->
           match i with Jt_isa.Insn.Mov (_, Jt_isa.Insn.Reg _) -> Some a | _ -> None)
    |> Option.get
  in
  Alcotest.(check bool)
    "r5 dead after call in convention-breaking module" true
    (List.exists (Reg.equal Reg.r5)
       (Jt_analysis.Liveness.dead_regs_before main_fa.fa_liveness mov_addr))

let test_interproc_syscall_precision () =
  (* regression: the kernel interface used to be summarized as
     clobber-everything, so a callee that merely prints lost every
     caller value.  A syscall clobbers only r0 (the simulated kernel
     restores the rest), so [sysleaf]'s summary must keep r4 out of the
     clobber mask — making r4 live across the call in [main], the fact
     the old summary destroyed — while still marking the callee a
     shadow-state barrier (allocator events are syscall-gated). *)
  let m =
    build ~name:"ipa-sys" ~kind:Jt_obj.Objfile.Exec_nonpic
      ~features:[ Jt_obj.Objfile.Breaks_calling_convention ] ~entry:"main"
      [
        func "sysleaf" [ movi Reg.r0 42; syscall Sysno.write_int; ret ];
        func "main"
          [
            movi Reg.r4 7;
            call "sysleaf";
            mov Reg.r0 Reg.r4;
            syscall Sysno.exit_;
          ];
      ]
  in
  let cfg = Jt_cfg.Cfg.build (Jt_disasm.Disasm.run m) in
  let summaries = Jt_analysis.Interproc.summaries cfg in
  let addr_of name = (Jt_obj.Objfile.find_symbol m name |> Option.get).vaddr in
  let leaf = Hashtbl.find summaries (addr_of "sysleaf") in
  let mask rs = Jt_analysis.Liveness.reg_mask rs in
  Alcotest.(check bool)
    "syscall leaf spares r4" true
    (leaf.ip_clobbers land mask [ Reg.r4 ] = 0);
  Alcotest.(check bool) "syscall leaf clobbers r0" true
    (leaf.ip_clobbers land mask [ Reg.r0 ] <> 0);
  Alcotest.(check bool) "still a shadow-state barrier" true leaf.ip_barrier;
  let sa = Janitizer.Static_analyzer.analyze m in
  let main_fa =
    List.find
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        fa.fa_fn.Jt_cfg.Cfg.f_entry = addr_of "main")
      sa.sa_fns
  in
  let call_addr =
    List.concat_map
      (fun (b : Jt_cfg.Cfg.block) ->
        Array.to_list
          (Array.map (fun i -> (i.Jt_disasm.Disasm.d_addr, i.d_insn)) b.b_insns))
      (Jt_cfg.Cfg.fn_blocks main_fa.fa_fn)
    |> List.find_map (fun (a, i) ->
           match i with Jt_isa.Insn.Call _ -> Some a | _ -> None)
    |> Option.get
  in
  Alcotest.(check bool)
    "r4 live across the printing callee (previously lost)" true
    (not
       (List.exists (Reg.equal Reg.r4)
          (Jt_analysis.Liveness.dead_regs_before main_fa.fa_liveness call_addr)))

(* -- dominator tree -- *)

let diamond_fn () =
  let _, _, fa =
    analyze_main
      [
        func "main"
          [
            cmpi Reg.r0 0;
            jcc Insn.Eq "else_";
            movi Reg.r1 5;
            movi Reg.r3 1;
            jmp "join";
            label "else_";
            movi Reg.r2 6;
            movi Reg.r3 2;
            label "join";
            movi Reg.r0 0;
            syscall Sysno.exit_;
          ];
      ]
  in
  fa

let diamond_blocks fa =
  match
    List.sort compare
      (List.map
         (fun (b : Jt_cfg.Cfg.block) -> b.b_addr)
         (Jt_cfg.Cfg.fn_blocks fa.Janitizer.Static_analyzer.fa_fn))
  with
  | [ e; t; el; j ] -> (e, t, el, j)
  | l -> Alcotest.failf "expected 4 blocks, got %d" (List.length l)

let test_domtree_diamond () =
  let fa = diamond_fn () in
  let e, t, el, j = diamond_blocks fa in
  let dt = fa.fa_fn.f_dom in
  Alcotest.(check int) "entry" e (Jt_cfg.Domtree.entry dt);
  Alcotest.(check (option int)) "idom then" (Some e) (Jt_cfg.Domtree.idom dt t);
  Alcotest.(check (option int)) "idom else" (Some e) (Jt_cfg.Domtree.idom dt el);
  (* the join is dominated by the entry, not by either branch arm *)
  Alcotest.(check (option int)) "idom join" (Some e) (Jt_cfg.Domtree.idom dt j);
  Alcotest.(check (option int)) "entry has no idom" None (Jt_cfg.Domtree.idom dt e);
  Alcotest.(check bool) "entry dominates join" true (Jt_cfg.Domtree.dominates dt e j);
  Alcotest.(check bool) "dominates is reflexive" true (Jt_cfg.Domtree.dominates dt j j);
  Alcotest.(check bool)
    "then does not dominate join" false
    (Jt_cfg.Domtree.dominates dt t j);
  Alcotest.(check bool)
    "strict dominance is irreflexive" false
    (Jt_cfg.Domtree.strictly_dominates dt j j);
  Alcotest.(check (list int))
    "children of entry" (List.sort compare [ t; el; j ])
    (List.sort compare (Jt_cfg.Domtree.children dt e))

(* -- differential: the idom tree against the set-based oracle -- *)

module Iset = Jt_cfg.Cfg.Iset
module Dt = Jt_cfg.Domtree

let fn_addrs (fn : Jt_cfg.Cfg.fn) =
  List.map (fun (b : Jt_cfg.Cfg.block) -> b.b_addr) (Jt_cfg.Cfg.fn_blocks fn)

(* The function's blocks keyed by address, as the oracles walk them. *)
let fn_table (fn : Jt_cfg.Cfg.fn) =
  let t = Hashtbl.create 16 in
  Array.iter (fun (b : Jt_cfg.Cfg.block) -> Hashtbl.replace t b.b_addr b) fn.f_blocks;
  t

(* The naive oracle: classic iterative dataflow dominator sets, every
   non-entry block starting at "all blocks" and shrinking to the
   intersection of its in-function predecessors' sets.  Exact on
   functions whose blocks the entry all reaches. *)
let oracle_dominators (fn : Jt_cfg.Cfg.fn) =
  let addrs = fn_addrs fn in
  let all = Iset.of_list addrs in
  let dom = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace dom a
        (if a = fn.f_entry then Iset.singleton a else all))
    addrs;
  let tbl = fn_table fn in
  let preds_in a =
    List.filter (Hashtbl.mem tbl) (Hashtbl.find tbl a).Jt_cfg.Cfg.b_preds
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        if a <> fn.f_entry then begin
          let inter =
            match preds_in a with
            | [] -> Iset.singleton a
            | p :: ps ->
              List.fold_left
                (fun acc q -> Iset.inter acc (Hashtbl.find dom q))
                (Hashtbl.find dom p) ps
          in
          let nd = Iset.add a inter in
          if not (Iset.equal nd (Hashtbl.find dom a)) then begin
            Hashtbl.replace dom a nd;
            changed := true
          end
        end)
      addrs
  done;
  dom

(* A block's idom is its strict dominator with the largest set. *)
let oracle_idoms (fn : Jt_cfg.Cfg.fn) dom =
  let card = Hashtbl.create 16 in
  Hashtbl.iter (fun a s -> Hashtbl.replace card a (Iset.cardinal s)) dom;
  let idom = Hashtbl.create 16 in
  Hashtbl.iter
    (fun a s ->
      if a <> fn.f_entry then
        Iset.iter
          (fun d ->
            if d <> a then
              match Hashtbl.find_opt idom a with
              | Some c when Hashtbl.find card c >= Hashtbl.find card d -> ()
              | _ -> Hashtbl.replace idom a d)
          s)
    dom;
  idom

(* Natural loops from the sets, by header address as [Cfg] returns them:
   the same walk over the same tables, with the back-edge test on the
   sets. *)
let oracle_loops (fn : Jt_cfg.Cfg.fn) dom =
  let tbl = fn_table fn in
  let loops = Hashtbl.create 8 in
  Hashtbl.iter
    (fun a (b : Jt_cfg.Cfg.block) ->
      List.iter
        (fun s ->
          if Hashtbl.mem tbl s && Iset.mem s (Hashtbl.find dom a) then begin
            let body = ref (Iset.of_list [ s; a ]) in
            let stack = ref [ a ] in
            while !stack <> [] do
              let x = List.hd !stack in
              stack := List.tl !stack;
              if x <> s then
                List.iter
                  (fun p ->
                    if Hashtbl.mem tbl p && not (Iset.mem p !body) then begin
                      body := Iset.add p !body;
                      stack := p :: !stack
                    end)
                  (Hashtbl.find tbl x).b_preds
            done;
            Hashtbl.replace loops s
              (match Hashtbl.find_opt loops s with
              | Some prev -> Iset.union prev !body
              | None -> !body)
          end)
        b.b_succs)
    tbl;
  Hashtbl.fold (fun h body acc -> (h, Iset.elements body) :: acc) loops []
  |> List.sort compare

(* The first disagreement between [fn]'s tree and loops and the oracle's,
   if any.  Every block of [fn] must be reachable from its entry. *)
let oracle_mismatch (fn : Jt_cfg.Cfg.fn) =
  let dom = oracle_dominators fn in
  let idom = oracle_idoms fn dom in
  let dt = fn.f_dom in
  let addrs = fn_addrs fn in
  let kids a =
    List.filter (fun c -> Hashtbl.find_opt idom c = Some a) addrs
  in
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  let per_block b =
    if Dt.idom dt b <> Hashtbl.find_opt idom b then fail "idom of %x" b
    else if Dt.children dt b <> kids b then fail "children of %x" b
    else
      List.find_map
        (fun a ->
          if Dt.dominates dt a b <> Iset.mem a (Hashtbl.find dom b) then
            fail "dominates %x %x" a b
          else if Dt.strictly_dominates dt a b <> (a <> b && Iset.mem a (Hashtbl.find dom b))
          then fail "strictly_dominates %x %x" a b
          else None)
        addrs
  in
  match List.find_map per_block addrs with
  | Some _ as m -> m
  | None ->
    let loops =
      List.map
        (fun (l : Jt_cfg.Cfg.loop) -> (l.l_head, Iset.elements l.l_body))
        fn.f_loops
    in
    if loops <> oracle_loops fn dom then fail "natural loops" else None

(* A function over a graph given as (from, to) index pairs, block [i] at
   address [0x1000 + 0x10 * i]. *)
let addr_of i = 0x1000 + (0x10 * i)

let fn_of_edges ?(keep = fun _ -> true) ~n ~entry edges =
  let blocks = Hashtbl.create n in
  for i = 0 to n - 1 do
    if keep i then
      Hashtbl.replace blocks (addr_of i)
        { Jt_cfg.Cfg.b_addr = addr_of i; b_insns = [||]; b_term = Jt_cfg.Cfg.Thalt;
          b_succs = []; b_preds = [] }
  done;
  List.iter
    (fun (u, v) ->
      match (Hashtbl.find_opt blocks (addr_of u), Hashtbl.find_opt blocks (addr_of v)) with
      | Some bu, Some bv ->
        bu.b_succs <- bu.b_succs @ [ addr_of v ];
        bv.b_preds <- addr_of u :: bv.b_preds
      | _ -> ())
    edges;
  Jt_cfg.Cfg.make_fn ~entry:(addr_of entry) ~name:None blocks

let reachable ~n ~entry edges =
  let seen = Array.make n false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun (u, v) -> if u = i then go v) edges
    end
  in
  go entry;
  seen

(* Random graphs: [n] blocks, a random entry, each other block given a
   tree edge from an earlier block (in an entry-first order) unless its
   pick is [None], plus random extra edges — self-loops, edges back to
   the entry, irreducible cycles and diamonds all occur. *)
let gen_graph =
  let open QCheck2.Gen in
  int_range 1 16 >>= fun n ->
  map
    (fun (entry, picks, extra) ->
      let order = entry :: List.filter (( <> ) entry) (List.init n Fun.id) in
      let arr = Array.of_list order in
      let tree =
        List.concat
          (List.mapi
             (fun j pick ->
               match pick with
               | Some p when j + 1 < n -> [ (arr.(p mod (j + 1)), arr.(j + 1)) ]
               | _ -> [])
             picks)
      in
      (n, entry, tree @ extra))
    (triple (int_bound (n - 1))
       (list_repeat n (frequency [ (9, map Option.some nat); (1, return None) ]))
       (list_size (int_bound (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))))

let print_graph (n, entry, edges) =
  Printf.sprintf "n=%d entry=%d edges=[%s]" n entry
    (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges))

(* The reachable part agrees with the oracle; with the unreachable blocks
   left in, the reachable ones answer exactly as before and every
   unreachable one has no idom and is dominated only by itself. *)
let prop_domtree_oracle =
  QCheck2.Test.make ~name:"idom tree = set oracle on random CFGs" ~count:500
    ~print:print_graph gen_graph (fun (n, entry, edges) ->
      let live = reachable ~n ~entry edges in
      let reach = fn_of_edges ~keep:(fun i -> live.(i)) ~n ~entry edges in
      (match oracle_mismatch reach with
      | Some m -> QCheck2.Test.fail_reportf "reachable part: %s" m
      | None -> ());
      let full = fn_of_edges ~n ~entry edges in
      let all = List.init n addr_of in
      let is_live a = live.((a - 0x1000) / 0x10) in
      List.for_all
        (fun b ->
          if is_live b then
            Dt.idom full.f_dom b = Dt.idom reach.f_dom b
            && List.for_all
                 (fun a ->
                   Dt.dominates full.f_dom a b
                   = (is_live a && Dt.dominates reach.f_dom a b))
                 all
          else
            Dt.idom full.f_dom b = None
            && List.for_all
                 (fun a ->
                   Dt.dominates full.f_dom a b = (a = b)
                   && Dt.dominates full.f_dom b a = (a = b))
                 all)
        all)

let check_oracle what fn =
  match oracle_mismatch fn with
  | Some m -> Alcotest.failf "%s: %s" what m
  | None -> ()

(* The named shapes, each checked against the oracle explicitly. *)
let test_domtree_shapes () =
  List.iter
    (fun (what, n, edges) -> check_oracle what (fn_of_edges ~n ~entry:0 edges))
    [
      ("self-loop", 3, [ (0, 1); (1, 1); (1, 2) ]);
      ("back edge to the entry", 3, [ (0, 1); (1, 0); (1, 2) ]);
      ("irreducible", 4, [ (0, 1); (0, 2); (1, 2); (2, 1); (2, 3) ]);
      ("diamond", 4, [ (0, 1); (0, 2); (1, 3); (2, 3) ]);
      ( "nested loops in a diamond", 7,
        [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (4, 5); (5, 4); (5, 3); (3, 6) ] );
    ]

(* Unreachable blocks, a cycle among them included: no idom, dominated
   only by themselves — and they do not perturb the reachable blocks'
   tree. *)
let test_domtree_unreachable () =
  let fn = fn_of_edges ~n:5 ~entry:0 [ (0, 1); (2, 3); (3, 2); (3, 1); (4, 4) ] in
  let dt = fn.f_dom in
  Alcotest.(check (option int)) "reachable idom" (Some (addr_of 0)) (Dt.idom dt (addr_of 1));
  List.iter
    (fun u ->
      let a = addr_of u in
      Alcotest.(check (option int)) (Printf.sprintf "%d has no idom" u) None (Dt.idom dt a);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "dominates %d %d" v u)
            (u = v)
            (Dt.dominates dt (addr_of v) a))
        [ 0; 1; 2; 3; 4 ])
    [ 2; 3; 4 ]

(* Every function of every registry module, and ld.so. *)
let test_domtree_registry () =
  let seen = Hashtbl.create 64 in
  let modules =
    List.concat_map
      (fun s -> (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_registry)
      Jt_workloads.Sheet.all
    @ [ Jt_loader.Loader.ld_so ]
    |> List.filter (fun m ->
           let d = Jt_obj.Objfile.digest m in
           (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true))
  in
  let fns = ref 0 in
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      List.iter
        (fun (fn : Jt_cfg.Cfg.fn) ->
          incr fns;
          check_oracle (Printf.sprintf "%s fn %x" m.name fn.f_entry) fn)
        (Jt_cfg.Cfg.functions (Jt_cfg.Cfg.build (Jt_disasm.Disasm.run m))))
    modules;
  Alcotest.(check bool) "ld.so among the modules" true
    (List.exists (fun (m : Jt_obj.Objfile.t) -> m.name = "ld.so") modules);
  Alcotest.(check bool) "over a thousand functions" true (!fns > 1000)

(* [Defuse] on the shared solver against the round-robin reference
   ([Defuse_ref]): every register before every instruction of every
   function of the registry modules, ld.so and a batch of Fuzz programs
   (none of their functions has a block unreachable from its entry;
   "unreached block" covers that case). *)
let test_defuse_reference () =
  let seen = Hashtbl.create 64 in
  let modules =
    List.concat_map
      (fun s -> (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_registry)
      Jt_workloads.Sheet.all
    @ [ Jt_loader.Loader.ld_so ]
    @ List.map Jt_fuzz.Fuzz.build (Jt_fuzz.Fuzz.cases_of ~base_seed:1 ~seeds:8)
    |> List.filter (fun m ->
           let d = Jt_obj.Objfile.digest m in
           (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true))
  in
  let queries = ref 0 in
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      List.iter
        (fun (fn : Jt_cfg.Cfg.fn) ->
          let du = Jt_analysis.Defuse.analyze fn in
          let oracle = Defuse_ref.analyze fn in
          List.iter
            (fun (b : Jt_cfg.Cfg.block) ->
              Array.iter
                (fun (i : Jt_disasm.Disasm.insn_info) ->
                  List.iter
                    (fun r ->
                      incr queries;
                      let got = Jt_analysis.Defuse.reaching_defs du i.d_addr r
                      and want = Defuse_ref.reaching_defs oracle i.d_addr r in
                      if got <> want then
                        Alcotest.failf "%s fn %x: %s before %x: [%s], want [%s]"
                          m.name fn.f_entry (Reg.name r) i.d_addr
                          (String.concat ";" (List.map string_of_int got))
                          (String.concat ";" (List.map string_of_int want)))
                    Reg.all)
                b.b_insns)
            (Jt_cfg.Cfg.fn_blocks fn))
        (Jt_cfg.Cfg.functions (Jt_cfg.Cfg.build (Jt_disasm.Disasm.run m))))
    modules;
  Alcotest.(check bool) "over 300K queries" true (!queries > 300_000)

(* A block with no predecessors that the entry cannot reach: the solver
   never visits it, and its queries replay it from the empty state, so
   only its own definitions reach and every other register is unknown,
   as in the reference. *)
let test_defuse_unreached_block () =
  let block a insns succs =
    {
      Jt_cfg.Cfg.b_addr = a;
      b_insns =
        Array.of_list
          (List.mapi
             (fun k i -> { Jt_disasm.Disasm.d_addr = a + (4 * k); d_insn = i; d_len = 4 })
             insns);
      b_term = Jt_cfg.Cfg.Thalt;
      b_succs = succs;
      b_preds = [];
    }
  in
  let blocks = Hashtbl.create 2 in
  List.iter
    (fun b -> Hashtbl.replace blocks b.Jt_cfg.Cfg.b_addr b)
    [
      block 0x1000 [ Insn.Mov (Reg.r1, Insn.Imm 1); Insn.Halt ] [];
      block 0x1100
        [
          Insn.Mov (Reg.r2, Insn.Imm 2);
          Insn.Binop (Insn.Add, Reg.r1, Insn.Reg Reg.r2);
          Insn.Mov (Reg.r3, Insn.Reg Reg.r1);
        ]
        [];
    ];
  let fn = Jt_cfg.Cfg.make_fn ~entry:0x1000 ~name:None blocks in
  let du = Jt_analysis.Defuse.analyze fn and oracle = Defuse_ref.analyze fn in
  let defs = Alcotest.(list int) in
  Alcotest.check defs "r2 from its block" [ 0x1100 ]
    (Jt_analysis.Defuse.reaching_defs du 0x1104 Reg.r2);
  Alcotest.check defs "r1 unknown on entry" [ -1 ]
    (Jt_analysis.Defuse.reaching_defs du 0x1104 Reg.r1);
  Alcotest.check defs "r1 from the add" [ 0x1104 ]
    (Jt_analysis.Defuse.reaching_defs du 0x1108 Reg.r1);
  List.iter
    (fun a ->
      List.iter
        (fun r ->
          Alcotest.check defs
            (Printf.sprintf "%s before %x" (Reg.name r) a)
            (Defuse_ref.reaching_defs oracle a r)
            (Jt_analysis.Defuse.reaching_defs du a r))
        Reg.all)
    [ 0x1000; 0x1004; 0x1100; 0x1104; 0x1108 ]

(* -- generic dataflow solver -- *)

(* Definitely-/possibly-defined registers as bitmask lattices: union join
   gives the may-analysis, intersection the must-analysis (relying on the
   solver's optimistic initialization for the implicit top). *)
module Bits_may = struct
  type t = int

  let equal = Int.equal
  let join = ( lor )
  let widen = ( lor )
end

module Bits_must = struct
  type t = int

  let equal = Int.equal
  let join = ( land )
  let widen = ( land )
end

module May = Jt_analysis.Dataflow.Make (Bits_may)
module Must = Jt_analysis.Dataflow.Make (Bits_must)

let def_transfer (i : Jt_disasm.Disasm.insn_info) s =
  match i.d_insn with
  | Insn.Mov (rd, Insn.Imm _) -> s lor Jt_analysis.Liveness.reg_mask [ rd ]
  | _ -> s

let test_dataflow_may_vs_must () =
  let fa = diamond_fn () in
  let _, _, _, j = diamond_blocks fa in
  let mask rs = Jt_analysis.Liveness.reg_mask rs in
  let may = May.solve ~entry:0 ~transfer:def_transfer fa.fa_fn in
  let must = Must.solve ~entry:0 ~transfer:def_transfer fa.fa_fn in
  (* r1 defined on the then arm only, r2 on the else arm only, r3 on
     both: the may-join sees all three, the must-join only r3 *)
  let got_may = Option.get (May.block_in may j) in
  let got_must = Option.get (Must.block_in must j) in
  Alcotest.(check int)
    "may = union" (mask [ Reg.r1; Reg.r2; Reg.r3 ])
    got_may;
  Alcotest.(check int) "must = intersection" (mask [ Reg.r3 ]) got_must;
  (* out of the join block adds its own def of r0 *)
  Alcotest.(check int)
    "block_out replays the block"
    (mask [ Reg.r3; Reg.r0 ])
    (Option.get (Must.block_out must j));
  Alcotest.(check bool) "terminated" true (May.iterations may >= 4)

let test_dataflow_loop_fixpoint () =
  (* a loop must reach a fixpoint, and facts established before it
     survive it when nothing inside redefines them *)
  let _, _, fa =
    analyze_main
      [
        func "main"
          [
            movi Reg.r6 42;
            movi Reg.r1 0;
            label "head";
            cmpi Reg.r1 4;
            jcc Insn.Ge "done";
            addi Reg.r1 1;
            jmp "head";
            label "done";
            movi Reg.r0 0;
            syscall Sysno.exit_;
          ];
      ]
  in
  let mask rs = Jt_analysis.Liveness.reg_mask rs in
  let must = Must.solve ~entry:0 ~transfer:def_transfer fa.fa_fn in
  let exit_block =
    List.fold_left max 0
      (List.map
         (fun (b : Jt_cfg.Cfg.block) -> b.b_addr)
         (Jt_cfg.Cfg.fn_blocks fa.fa_fn))
  in
  let got = Option.get (Must.block_in must exit_block) in
  Alcotest.(check int)
    "defs reach through the loop"
    (mask [ Reg.r6; Reg.r1 ])
    (got land mask [ Reg.r6; Reg.r1 ])

(* -- value-set analysis -- *)

let vsa_for funcs fname =
  let m =
    build ~name:"vsat" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main" funcs
  in
  let sa = Janitizer.Static_analyzer.analyze m in
  let addr = (Jt_obj.Objfile.find_symbol m fname |> Option.get).vaddr in
  let fa =
    List.find
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        fa.fa_fn.Jt_cfg.Cfg.f_entry = addr)
      sa.sa_fns
  in
  (fa, Jt_analysis.Vsa.analyze fa.fa_fn)

let test_vsa_sp_tracking () =
  let fa, v =
    vsa_for
      [
        func "victim"
          (Abi.frame_enter ~locals:16 ()
          @ [ sti (mem_b ~disp:(-8) Reg.fp) 7 ]
          @ Abi.frame_leave ~locals:16 ());
        func "main" ([ call "victim" ] @ Progs.exit0);
      ]
      "victim"
  in
  let addrs = insn_addrs fa in
  (* at function entry, sp is exactly the entry stack pointer *)
  (match Jt_analysis.Vsa.reg_before v (List.hd addrs) Reg.sp with
  | Jt_analysis.Vsa.Sprel { lo = 0; hi = 0 } -> ()
  | x -> Alcotest.failf "entry sp: %s" (Jt_analysis.Vsa.value_to_string x));
  (* the frame store's address is a singleton sp-relative offset below
     the entry sp *)
  let store =
    List.concat_map
      (fun (b : Jt_cfg.Cfg.block) -> Array.to_list b.b_insns)
      (Jt_cfg.Cfg.fn_blocks fa.fa_fn)
    |> List.find_map (fun (i : Jt_disasm.Disasm.insn_info) ->
           match i.d_insn with
           | Insn.Store (_, m, Insn.Imm _) -> Some (i, m)
           | _ -> None)
    |> Option.get
  in
  (match Jt_analysis.Vsa.mem_addr v (fst store) (snd store) with
  | Jt_analysis.Vsa.Sprel { lo; hi } ->
    Alcotest.(check bool) "singleton below entry sp" true (lo = hi && lo < 0)
  | x -> Alcotest.failf "store addr: %s" (Jt_analysis.Vsa.value_to_string x));
  Alcotest.(check bool) "not bailed" false (Jt_analysis.Vsa.bailed v);
  Alcotest.(check bool) "iterated" true (Jt_analysis.Vsa.iterations v > 0)

let test_vsa_and_mask_bounds () =
  let fa, v =
    vsa_for
      [
        func "main"
          ([
             call_import "read_int";
             mov Reg.r3 Reg.r0;
             andi Reg.r3 7;
             mov Reg.r4 Reg.r3;
           ]
          @ Progs.exit0);
      ]
      "main"
  in
  let addrs = insn_addrs fa in
  (* before the andi (3rd insn) r3 is unknown; after it (4th insn) the
     mask bounds it in [0,7] *)
  (match Jt_analysis.Vsa.reg_before v (List.nth addrs 2) Reg.r3 with
  | Jt_analysis.Vsa.Top -> ()
  | x -> Alcotest.failf "pre-mask: %s" (Jt_analysis.Vsa.value_to_string x));
  match Jt_analysis.Vsa.reg_before v (List.nth addrs 3) Reg.r3 with
  | Jt_analysis.Vsa.Cst { lo = 0; hi = 7 } -> ()
  | x -> Alcotest.failf "post-mask: %s" (Jt_analysis.Vsa.value_to_string x)

let test_vsa_loop_widens () =
  let fa, v =
    vsa_for
      [
        func "main"
          [
            movi Reg.r6 0x5000_0000;
            movi Reg.r1 0;
            label "head";
            cmpi Reg.r1 8;
            jcc Insn.Ge "done";
            st (mem_bi ~scale:4 Reg.r6 Reg.r1) Reg.r1;
            addi Reg.r1 1;
            jmp "head";
            label "done";
            movi Reg.r0 0;
            syscall Sysno.exit_;
          ]
      ]
      "main"
  in
  let addrs = insn_addrs fa in
  let sp0 = Word.of_int 0x7000_0000 in
  (* at the store (5th insn): the loop counter has been widened to an
     over-approximation covering values far past the bound, while the
     loop-invariant base keeps its exact value *)
  let r1 = Jt_analysis.Vsa.reg_before v (List.nth addrs 4) Reg.r1 in
  Alcotest.(check bool)
    "widened counter covers 0" true
    (Jt_analysis.Vsa.contains ~sp0 r1 (Word.of_int 0));
  Alcotest.(check bool)
    "widened counter covers 1_000_000" true
    (Jt_analysis.Vsa.contains ~sp0 r1 (Word.of_int 1_000_000));
  match Jt_analysis.Vsa.reg_before v (List.nth addrs 4) Reg.r6 with
  | Jt_analysis.Vsa.Cst { lo; hi } ->
    Alcotest.(check bool) "base stays exact" true
      (lo = 0x5000_0000 && hi = 0x5000_0000)
  | x -> Alcotest.failf "base: %s" (Jt_analysis.Vsa.value_to_string x)

let test_vsa_bails_without_conventions () =
  let m =
    build ~name:"vsab" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libc.so" ]
      ~entry:"main"
      [ func "main" ([ movi Reg.r1 3 ] @ Progs.exit0) ]
  in
  let sa = Janitizer.Static_analyzer.analyze m in
  let main_addr = (Jt_obj.Objfile.find_symbol m "main" |> Option.get).vaddr in
  let fa =
    List.find
      (fun (fa : Janitizer.Static_analyzer.fn_analysis) ->
        fa.fa_fn.Jt_cfg.Cfg.f_entry = main_addr)
      sa.sa_fns
  in
  let v = Jt_analysis.Vsa.analyze ~trust_conventions:false fa.fa_fn in
  Alcotest.(check bool) "bailed" true (Jt_analysis.Vsa.bailed v);
  let addrs = insn_addrs fa in
  match Jt_analysis.Vsa.reg_before v (List.nth addrs 1) Reg.r1 with
  | Jt_analysis.Vsa.Top -> ()
  | x -> Alcotest.failf "bailed query: %s" (Jt_analysis.Vsa.value_to_string x)

(* ---- analysis reuse: [compute]'s one-slot, domain-local cache ---- *)

module Sa = Janitizer.Static_analyzer
module Fuzz = Jt_fuzz.Fuzz

let computes f =
  let a0 = Sa.analyses_performed () in
  let x = f () in
  (x, Sa.analyses_performed () - a0)

let fuzz_cases = lazy (Fuzz.cases_of ~base_seed:1 ~seeds:4)
let fuzz_main seed = Fuzz.build { Fuzz.fz_seed = seed; fz_pic = true; fz_inject = None }

let test_reuse_consecutive () =
  let m = fuzz_main 101 in
  let (s1, s2, s3), n =
    computes (fun () ->
        let s1 = Sa.compute m in
        let s2 = Sa.compute m in
        (s1, s2, Sa.compute m))
  in
  Alcotest.(check int) "three requests, two computations" 2 n;
  Alcotest.(check bool) "the first is not kept" false (s1 == s2);
  Alcotest.(check bool) "the third is the second's" true (s3 == s2)

let test_reuse_interleaved () =
  let m = fuzz_main 102 and m' = fuzz_main 103 in
  let (), n =
    computes (fun () ->
        ignore (Sa.compute m);
        ignore (Sa.compute m');
        ignore (Sa.compute m))
  in
  Alcotest.(check int) "m, m', m: three computations" 3 n

(* The analysis goes out of reach inside the helper, so a full major
   collection can free it unless something still holds it. *)
let[@inline never] weak_of f =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (f ()));
  w

let test_reuse_not_held () =
  let m = fuzz_main 104 and m' = fuzz_main 105 in
  let first = weak_of (fun () -> Sa.compute m) in
  Gc.full_major ();
  Alcotest.(check bool) "a first request is not kept" false (Weak.check first 0);
  let kept = weak_of (fun () -> Sa.compute m) in
  Gc.full_major ();
  Alcotest.(check bool) "a second request is kept" true (Weak.check kept 0);
  ignore (Sa.compute m');
  Gc.full_major ();
  Alcotest.(check bool) "another module empties the slot" false (Weak.check kept 0)

let test_reuse_domain_local () =
  let m = fuzz_main 106 in
  ignore (Sa.compute m);
  let kept = Sa.compute m in
  let other, n = computes (fun () -> Domain.join (Domain.spawn (fun () -> Sa.compute m))) in
  Alcotest.(check int) "another domain computes its own" 1 n;
  Alcotest.(check bool) "another domain does not see this slot" false (other == kept);
  Alcotest.(check bool) "this domain keeps its own" true (Sa.compute m == kept)

(* A kept analysis, already used by a tool, against a fresh [compute] of
   a copy of the module: the same JASan and JCFI rule bytes and CPA
   sites, over every registry main and 24 Fuzz mains. *)
let test_reuse_equals_fresh () =
  let jasan, _ = Jt_jasan.Jasan.create () in
  let jcfi, _ = Jt_jcfi.Jcfi.create () in
  let rules (tool : Janitizer.Tool.t) sa = Jt_rules.Rules.encode_file (tool.t_static sa) in
  let sites (sa : Sa.t) = Jt_analysis.Cpa.export (Lazy.force sa.sa_cpa) in
  let mains =
    List.map
      (fun s -> (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_main)
      Jt_workloads.Sheet.all
    @ List.map Fuzz.build (Lazy.force fuzz_cases)
  in
  Alcotest.(check int) "28 registry and 24 Fuzz mains" 52 (List.length mains);
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      ignore (Sa.compute m);
      let second = Sa.compute m in
      let jasan_rules = rules jasan second in
      let kept = Sa.compute m in
      if not (kept == second) then Alcotest.failf "%s: not kept" m.name;
      let fresh = Sa.compute { m with name = m.name } in
      let check what ok = if not ok then Alcotest.failf "%s: %s differ" m.name what in
      check "JASan rules" (jasan_rules = rules jasan fresh);
      check "JCFI rules" (rules jcfi kept = rules jcfi fresh);
      check "CPA sites" (sites kept = sites fresh))
    mains

(* Everything a Fuzz case runs: its program under every scheme. *)
let run_case c =
  let m = Fuzz.build c in
  List.map (fun s -> Fuzz.run_scheme s m) Fuzz.schemes

let test_reuse_fuzz_case () =
  (* the first cases also analyze libc (its JASan rules, its rewrites) *)
  List.iter
    (fun pic -> ignore (run_case { Fuzz.fz_seed = 100; fz_pic = pic; fz_inject = None }))
    [ false; true ];
  List.iter
    (fun (c : Fuzz.case) ->
      let _, n = computes (fun () -> run_case c) in
      if n > 2 then
        Alcotest.failf "%s: %d computations, at most 2" (Fuzz.case_name c) n)
    (Lazy.force fuzz_cases)

let test_reuse_pool () =
  let cases = Lazy.force fuzz_cases in
  let sequential = List.map run_case cases in
  let parallel = Jt_pool.Pool.run ~jobs:2 run_case cases in
  List.iter2
    (fun (c : Fuzz.case) (s, p) ->
      if s <> p then Alcotest.failf "%s: outcomes differ on two domains" (Fuzz.case_name c))
    cases
    (List.combine sequential parallel)

let () =
  Alcotest.run "analysis"
    [
      ( "liveness",
        [
          Alcotest.test_case "dead after use" `Quick test_liveness_dead_after_last_use;
          Alcotest.test_case "across blocks" `Quick test_liveness_across_blocks;
          Alcotest.test_case "conservative" `Quick test_liveness_conservative_fallback;
        ] );
      ("canary", [ Alcotest.test_case "detection" `Quick test_canary_detection ]);
      ( "scev",
        [
          Alcotest.test_case "hoistable" `Quick test_scev_hoistable_loop;
          Alcotest.test_case "bails" `Quick test_scev_bails;
        ] );
      ( "defuse",
        [
          Alcotest.test_case "malloc chain" `Quick test_defuse_traces_malloc;
          Alcotest.test_case "reference on the registry and Fuzz" `Quick
            test_defuse_reference;
          Alcotest.test_case "unreached block" `Quick test_defuse_unreached_block;
        ] );
      ( "domtree",
        [
          Alcotest.test_case "diamond" `Quick test_domtree_diamond;
          Alcotest.test_case "oracle shapes" `Quick test_domtree_shapes;
          Alcotest.test_case "unreachable blocks" `Quick test_domtree_unreachable;
          Alcotest.test_case "oracle on the registry" `Quick test_domtree_registry;
          QCheck_alcotest.to_alcotest prop_domtree_oracle;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "may vs must" `Quick test_dataflow_may_vs_must;
          Alcotest.test_case "loop fixpoint" `Quick test_dataflow_loop_fixpoint;
        ] );
      ( "vsa",
        [
          Alcotest.test_case "sp tracking" `Quick test_vsa_sp_tracking;
          Alcotest.test_case "and mask" `Quick test_vsa_and_mask_bounds;
          Alcotest.test_case "loop widening" `Quick test_vsa_loop_widens;
          Alcotest.test_case "convention bail" `Quick test_vsa_bails_without_conventions;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "summaries" `Quick test_interproc_summaries;
          Alcotest.test_case "syscall precision" `Quick
            test_interproc_syscall_precision;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "consecutive requests" `Quick test_reuse_consecutive;
          Alcotest.test_case "interleaved modules" `Quick test_reuse_interleaved;
          Alcotest.test_case "first request not held" `Quick test_reuse_not_held;
          Alcotest.test_case "domain-local slot" `Quick test_reuse_domain_local;
          Alcotest.test_case "kept equals fresh" `Quick test_reuse_equals_fresh;
          Alcotest.test_case "fuzz case computations" `Quick test_reuse_fuzz_case;
          Alcotest.test_case "fuzz cases on two domains" `Quick test_reuse_pool;
        ] );
    ]
