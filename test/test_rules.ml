(* Rewrite rules: serialization roundtrips, hash tables, PIC adjust. *)

let gen_rule =
  let open QCheck2.Gen in
  let* id = int_range 0 0xFFFF in
  let* bb = int_bound 0xFFFF_FFF in
  let* insn = int_bound 0xFFFF_FFF in
  let* nd = int_bound 4 in
  let* data = list_repeat nd (int_bound Jt_isa.Word.mask) in
  return (Jt_rules.Rules.make ~id ~bb ~insn ~data ())

let gen_file =
  let open QCheck2.Gen in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 20) in
  let* stats =
    list_size (int_bound 5)
      (let* k = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
       let* v = int_bound Jt_isa.Word.mask in
       return (k, v))
  in
  let* rules = list_size (int_bound 200) gen_rule in
  return
    { Jt_rules.Rules.rf_module = name; rf_digest = ""; rf_stats = stats;
      rf_rules = rules }

let prop_roundtrip =
  QCheck2.Test.make ~name:"file encode/decode roundtrip" ~count:300 gen_file
    (fun f -> Jt_rules.Rules.(decode_file (encode_file f)) = f)

let mk ~id ~bb ~insn ?(data = []) () = Jt_rules.Rules.make ~id ~bb ~insn ~data ()

let file rules =
  {
    Jt_rules.Rules.rf_module = "m";
    rf_digest = "";
    rf_stats = [];
    rf_rules = rules;
  }

(* A module's rules as the DBT binds them: its file's index, looked up
   at [a - base] and shifted back to run-time coordinates. *)
let bb_seen ix ~base a = Jt_rules.Rules.Index.bb_seen ix (a - base)

let at_insn ix ~base a =
  Jt_rules.Rules.shift ~base (Jt_rules.Rules.Index.at_insn ix (a - base))

let test_table_lookup () =
  let t =
    Jt_rules.Rules.index
      (file
         [
           mk ~id:Jt_rules.Rules.no_op ~bb:0x100 ~insn:0x100 ();
           mk ~id:0x101 ~bb:0x200 ~insn:0x208 ~data:[ 2; 1 ] ();
           mk ~id:0x102 ~bb:0x200 ~insn:0x208 ();
           mk ~id:0x101 ~bb:0x200 ~insn:0x210 ();
         ])
  in
  Alcotest.(check bool) "noop bb seen" true (bb_seen t ~base:0 0x100);
  Alcotest.(check bool) "rule bb seen" true (bb_seen t ~base:0 0x200);
  Alcotest.(check bool) "unknown bb" false (bb_seen t ~base:0 0x300);
  Alcotest.(check int) "two rules at insn" 2
    (List.length (at_insn t ~base:0 0x208));
  Alcotest.(check int) "noop filtered" 0
    (List.length (at_insn t ~base:0 0x100));
  Alcotest.(check int) "size" 4 (Jt_rules.Rules.Index.size t)

let test_pic_adjustment () =
  let t = Jt_rules.Rules.index (file [ mk ~id:0x101 ~bb:0x40 ~insn:0x48 () ]) in
  let base = 0x1000_0000 in
  Alcotest.(check bool) "adjusted bb" true (bb_seen t ~base 0x1000_0040);
  Alcotest.(check bool) "link addr no longer matches" false
    (bb_seen t ~base 0x40);
  (match at_insn t ~base 0x1000_0048 with
  | [ r ] ->
    Alcotest.(check int) "rule bb adjusted" 0x1000_0040 r.bb;
    Alcotest.(check int) "rule insn adjusted" 0x1000_0048 r.insn
  | _ -> Alcotest.fail "expected one rule");
  (* position-dependent modules are looked up unshifted *)
  Alcotest.(check bool) "non-pic unadjusted" true (bb_seen t ~base:0 0x40)

let format = "JTR3"

let decode_error = Progs.expect_decode_error ~format

let test_decode_failures () =
  decode_error ~reason:"bad magic" "bad magic" (fun () ->
      Jt_rules.Rules.decode_file "NOPE");
  let good =
    Jt_rules.Rules.encode_file
      { rf_module = "m"; rf_digest = ""; rf_stats = []; rf_rules = [] }
  in
  let truncated = String.sub good 0 (String.length good - 1) in
  decode_error ~reason:"truncated" "truncated" (fun () ->
      Jt_rules.Rules.decode_file truncated)

(* Regression: decode_file once filled data words via [Array.init], whose
   element evaluation order is unspecified — an order change would
   silently permute the words.  Four distinct values round-tripped
   in-order pins the explicit loop down. *)
let test_data_word_order () =
  let f =
    {
      Jt_rules.Rules.rf_module = "m";
      rf_digest = "";
      rf_stats = [];
      rf_rules =
        [ mk ~id:0x7 ~bb:0x100 ~insn:0x104 ~data:[ 0xAA; 0xBB; 0xCC; 0xDD ] () ];
    }
  in
  match (Jt_rules.Rules.(decode_file (encode_file f))).rf_rules with
  | [ r ] ->
    Alcotest.(check (array int)) "data words in written order"
      [| 0xAA; 0xBB; 0xCC; 0xDD |] r.data
  | _ -> Alcotest.fail "expected exactly one rule"

(* Regression: a corrupt header declaring ~4G rules must be rejected by
   the up-front count-vs-remaining-bytes check, not by spinning through
   the decode loop until a byte-level "truncated" failure.  The payload
   is sealed in a valid frame, so it is the count check that fires. *)
let test_corrupt_count_bound () =
  let corrupt =
    Jt_codec.Codec.seal ~magic:format ~version:1 (fun b ->
        (* empty digest, name "m", no stats, count 0xFFFFFFFF, no rule
           bytes *)
        Buffer.add_string b ("\x00" ^ "\x01\x00" ^ "m" ^ "\x00" ^ "\xff\xff\xff\xff"))
  in
  decode_error ~reason:"count exceeds buffer" "count bound" (fun () ->
      Jt_rules.Rules.decode_file corrupt)

(* Every one-bit flip and every truncation of bzip2's JASan rule file
   is rejected by the frame. *)
let test_byte_flips () =
  Progs.sealed_sweep ~format Jt_rules.Rules.decode_file
    (Jt_rules.Rules.encode_file (Progs.bzip2_jasan_rules ()))

(* Regression: the rule table once used [prev @ [ r ]] per same-insn
   rule (quadratic); the index must still present rules in file order
   at each instruction. *)
let test_table_same_insn_order () =
  let t =
    Jt_rules.Rules.index
      (file (List.init 40 (fun i -> mk ~id:(0x100 + i) ~bb:0x200 ~insn:0x208 ())))
  in
  Alcotest.(check (list int)) "file order preserved at one insn"
    (List.init 40 (fun i -> 0x100 + i))
    (List.map
       (fun (r : Jt_rules.Rules.t) -> r.rule_id)
       (at_insn t ~base:0 0x208))

(* v3 header: digest and stats survive the round trip, and the old v1/v2
   magics are rejected rather than misparsed. *)
let test_digest_roundtrip () =
  let digest = Digest.string "some module contents" in
  let stats = [ ("checks", 12); ("elide_dom", 4) ] in
  let f =
    { Jt_rules.Rules.rf_module = "m"; rf_digest = digest; rf_stats = stats;
      rf_rules = [ mk ~id:1 ~bb:0 ~insn:0 () ] }
  in
  let f' = Jt_rules.Rules.(decode_file (encode_file f)) in
  Alcotest.(check string) "digest round trip" digest f'.rf_digest;
  Alcotest.(check (list (pair string int))) "stats round trip" stats f'.rf_stats;
  decode_error ~reason:"bad magic" "v1 magic rejected" (fun () ->
      Jt_rules.Rules.decode_file "JTRR\x01\x00m\x00\x00\x00\x00");
  decode_error ~reason:"bad magic" "v2 magic rejected" (fun () ->
      Jt_rules.Rules.decode_file
        ("JTR2" ^ "\x00" ^ "\x01\x00" ^ "m" ^ "\x00\x00\x00\x00"));
  (* a "JTR3" file from before the frame: its digest length and first
     name byte read as the version *)
  decode_error ~reason:"version 256, expected 1" "unsealed v3 rejected"
    (fun () ->
      Jt_rules.Rules.decode_file
        ("JTR3" ^ "\x00" ^ "\x01\x00" ^ "m" ^ "\x00" ^ "\x00\x00\x00\x00"))

let test_data_limit () =
  match Jt_rules.Rules.make ~id:1 ~bb:0 ~insn:0 ~data:[ 1; 2; 3; 4; 5 ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* -- the load-time index against the reference tables -- *)

let pic_base = 0x1000_0000

(* Every address a rule names, its neighbours and the link addresses its
   data words carry: wherever the index could answer anything. *)
let probes (f : Jt_rules.Rules.file) =
  let seen = Hashtbl.create 1024 in
  let add a = Hashtbl.replace seen a () in
  List.iter
    (fun (r : Jt_rules.Rules.t) ->
      List.iter add [ r.bb; r.bb - 1; r.insn; r.insn + 1 ];
      Array.iter add r.data)
    f.rf_rules;
  Hashtbl.fold (fun a () acc -> a :: acc) seen [] |> List.sort compare

(* [bb_seen]/[at_insn] (rule order at an anchor included) and the size,
   at base 0 and at a PIC base, against [Rules_ref.load]. *)
let check_index label f =
  let ix = Jt_rules.Rules.index f in
  let probes = probes f in
  List.iter
    (fun base ->
      let t = Rules_ref.load f ~base ~pic:(base <> 0) in
      Alcotest.(check int) (label ^ ": size") (Rules_ref.size t)
        (Jt_rules.Rules.Index.size ix);
      List.iter
        (fun la ->
          let a = la + base in
          if bb_seen ix ~base a <> Rules_ref.bb_seen t a then
            Alcotest.failf "%s: bb_seen 0x%x at base 0x%x" label a base;
          if at_insn ix ~base a <> Rules_ref.at_insn t a then
            Alcotest.failf "%s: at_insn 0x%x at base 0x%x" label a base)
        probes)
    [ 0; pic_base ]

(* A JCFI file's target table against the five tables
   [Rules_ref.targets] builds, through every query the runtime and AIR
   make, at base 0 and at a PIC base. *)
let check_targets label (m : Jt_obj.Objfile.t) f =
  let module T = Jt_jcfi.Targets in
  let probes = probes f in
  List.iter
    (fun base ->
      let lmod =
        if base = 0 || Jt_obj.Objfile.is_pic m then m
        else { m with kind = Jt_obj.Objfile.Shared }
      in
      let l = { Jt_loader.Loader.lmod; base; load_order = 0 } in
      let pic = Jt_obj.Objfile.is_pic lmod in
      let t = T.of_hints l f in
      let r = Rules_ref.targets f ~base ~pic in
      let fail what a = Alcotest.failf "%s: %s 0x%x at base 0x%x" label what a base in
      let mem tbl a = Hashtbl.mem tbl a in
      List.iter
        (fun la ->
          let a = if pic then la + base else la in
          if T.intra_call_ok t a <> mem r.funcs a then fail "intra_call_ok" a;
          if T.inter_module_ok t a <> (mem r.exports a || mem r.addr_taken a) then
            fail "inter_module_ok" a;
          if T.jump_ok t ~fn_entry:None a <> (mem r.jump_targets a || mem r.funcs a)
          then fail "jump_ok" a;
          if T.site_set t ~site:a <> Hashtbl.find_opt r.site_sets a then
            fail "site_set" a)
        probes;
      Hashtbl.iter
        (fun e size ->
          List.iter
            (fun a ->
              let expect =
                (a >= e && a < e + size) || mem r.jump_targets a || mem r.funcs a
              in
              if T.jump_ok t ~fn_entry:(Some e) a <> expect then fail "jump_ok in" a)
            [ e - 1; e; e + size - 1; e + size ];
          if
            T.n_jump_targets_of_fn t ~fn_entry:(Some e)
            <> Hashtbl.length r.jump_targets + Hashtbl.length r.funcs + (size / 5)
          then fail "n_jump_targets_of_fn" e)
        r.funcs;
      Hashtbl.iter
        (fun site set ->
          List.iter
            (fun tgt ->
              if T.call_ok t ~site tgt <> List.mem tgt set then fail "call_ok" site)
            (set @ List.map (fun a -> if pic then a + base else a) probes))
        r.site_sets;
      let inter = Hashtbl.copy r.exports in
      Hashtbl.iter (fun a () -> Hashtbl.replace inter a ()) r.addr_taken;
      let n = Hashtbl.length in
      Alcotest.(check (list int)) (label ^ ": sizes")
        [ n r.funcs; n inter; n r.site_sets;
          n r.funcs + n r.exports + n r.addr_taken + n r.jump_targets;
          n r.jump_targets + n r.funcs ]
        [ T.n_intra_call t; T.n_inter t; T.n_site_sets t; T.n_entries t;
          T.n_jump_targets_of_fn t ~fn_entry:None ])
    [ 0; pic_base ]

(* Random files: mostly distinct block and anchor addresses, so the
   table outgrows its first size. *)
let prop_index_random =
  QCheck2.Test.make ~name:"random files" ~count:200 gen_file (fun f ->
      check_index f.rf_module f;
      true)

let check_corpus modules () =
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      let sa = Janitizer.Static_analyzer.analyze m in
      let jasan, _ = Jt_jasan.Jasan.create () and jcfi, _ = Jt_jcfi.Jcfi.create () in
      let fa = jasan.t_static sa and fc = jcfi.t_static sa in
      check_index (m.name ^ " jasan") fa;
      check_index (m.name ^ " jcfi") fc;
      check_targets (m.name ^ " jcfi") m fc)
    (modules ())

(* -- the index is built once per file object -- *)

let test_built_once () =
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2") in
  let libc = Jt_workloads.Stdlibs.libc in
  let tool () = fst (Jt_jcfi.Jcfi.create ()) in
  let f = (tool ()).t_static (Janitizer.Static_analyzer.analyze libc) in
  let run f =
    ignore
      (Janitizer.Driver.run ~tool:(tool ())
         ~precomputed:[ (f.Jt_rules.Rules.rf_module, f) ]
         ~registry:w.w_registry ~main:w.w_main.name ())
  in
  Alcotest.(check bool) "not indexed by the static pass" false
    (Jt_rules.Rules.indexed f);
  run f;
  Alcotest.(check bool) "indexed by the first run" true (Jt_rules.Rules.indexed f);
  let ix = Jt_rules.Rules.index f in
  run f;
  Alcotest.(check bool) "the second run reuses it" true (Jt_rules.Rules.index f == ix);
  let g = { f with rf_module = f.rf_module } in
  Alcotest.(check bool) "a copy does not inherit it" false (Jt_rules.Rules.indexed g);
  run g;
  Alcotest.(check bool) "a copy builds its own" true
    (Jt_rules.Rules.indexed g && Jt_rules.Rules.index g != ix)

(* -- a reused load base answers with the new module's rules -- *)

open Jt_asm.Builder
open Jt_asm.Builder.Dsl

(* Two non-PIC plugins with [poke] at the same link address: both load
   at base 0, the one base the loader reuses across dlclose/dlopen
   (footnote 2 of the paper). *)
let plug name = build ~name ~kind:Jt_obj.Objfile.Exec_nonpic [ func ~exported:true "poke" [ ret ] ]

let test_reused_base () =
  let open Jt_isa in
  let dl_call target =
    [
      addr_of_data ~pic:true Reg.r0 target;
      syscall Sysno.dlopen;
      mov Reg.r5 Reg.r0;
      addr_of_data ~pic:true Reg.r1 "pname";
      syscall Sysno.dlsym;
      call_reg Reg.r0;
      mov Reg.r0 Reg.r5;
      syscall Sysno.dlclose;
    ]
  in
  let main =
    build ~name:"rebind" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libc.so" ]
      ~entry:"main"
      ~datas:
        [
          data "xname" [ Dbytes "plugx.so\x00" ];
          data "yname" [ Dbytes "plugy.so\x00" ];
          data "pname" [ Dbytes "poke\x00" ];
        ]
      [ func "main" (dl_call "xname" @ dl_call "yname" @ Progs.exit0) ]
  in
  let x = plug "plugx.so" and y = plug "plugy.so" in
  let poke = (Option.get (Jt_obj.Objfile.find_symbol x "poke")).vaddr in
  Alcotest.(check int) "same link address" poke
    (Option.get (Jt_obj.Objfile.find_symbol y "poke")).vaddr;
  let rules =
    [ ("plugx.so", file [ mk ~id:0x901 ~bb:poke ~insn:poke () ]);
      ("plugy.so", file [ mk ~id:0x902 ~bb:poke ~insn:poke () ]) ]
  in
  let seen = ref [] in
  let client =
    {
      Jt_dbt.Dbt.cl_on_block =
        (fun _ b _ ~rules_at ->
          if b.bb_addr = poke then
            seen :=
              List.map (fun (r : Jt_rules.Rules.t) -> r.rule_id) (rules_at poke)
              :: !seen;
          Jt_dbt.Dbt.no_plan b);
    }
  in
  let vm = Jt_vm.Vm.make ~registry:[ main; Progs.libc; x; y ] () in
  let engine =
    Jt_dbt.Dbt.create ~vm ~client ~rules_for:(fun n -> List.assoc_opt n rules) ()
  in
  Jt_vm.Vm.boot vm ~main:"rebind";
  Jt_dbt.Dbt.run engine;
  Alcotest.(check bool) "exited" true (vm.status = Jt_vm.Vm.Exited 0);
  Alcotest.(check (list (list int))) "each load answers with its own rules"
    [ [ 0x901 ]; [ 0x902 ] ] (List.rev !seen)

let () =
  Alcotest.run "rules"
    [
      ( "format",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "decode failures" `Quick test_decode_failures;
          Alcotest.test_case "data word order" `Quick test_data_word_order;
          Alcotest.test_case "corrupt count bound" `Quick
            test_corrupt_count_bound;
          Alcotest.test_case "digest round trip" `Quick test_digest_roundtrip;
          Alcotest.test_case "data limit" `Quick test_data_limit;
          Alcotest.test_case "bzip2 byte flips" `Quick test_byte_flips;
        ] );
      ( "tables",
        [
          Alcotest.test_case "lookup" `Quick test_table_lookup;
          Alcotest.test_case "same-insn order" `Quick test_table_same_insn_order;
          Alcotest.test_case "pic adjust" `Quick test_pic_adjustment;
        ] );
      ( "index",
        [
          Alcotest.test_case "reference: registry mains" `Quick
            (check_corpus Corpus.registry_mains);
          Alcotest.test_case "reference: libraries" `Quick
            (check_corpus Corpus.libraries);
          Alcotest.test_case "reference: cold ladder" `Quick
            (check_corpus Corpus.cold_modules);
          Alcotest.test_case "reference: fuzz mains" `Quick
            (check_corpus Corpus.fuzz_modules);
          QCheck_alcotest.to_alcotest prop_index_random;
          Alcotest.test_case "built once" `Quick test_built_once;
          Alcotest.test_case "reused base" `Quick test_reused_base;
        ] );
    ]
