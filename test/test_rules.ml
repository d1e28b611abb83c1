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

let test_table_lookup () =
  let f =
    {
      Jt_rules.Rules.rf_module = "m";
      rf_digest = "";
      rf_stats = [];
      rf_rules =
        [
          mk ~id:Jt_rules.Rules.no_op ~bb:0x100 ~insn:0x100 ();
          mk ~id:0x101 ~bb:0x200 ~insn:0x208 ~data:[ 2; 1 ] ();
          mk ~id:0x102 ~bb:0x200 ~insn:0x208 ();
          mk ~id:0x101 ~bb:0x200 ~insn:0x210 ();
        ];
    }
  in
  let t = Jt_rules.Rules.Table.load f ~base:0 ~pic:false in
  Alcotest.(check bool) "noop bb seen" true (Jt_rules.Rules.Table.bb_seen t 0x100);
  Alcotest.(check bool) "rule bb seen" true (Jt_rules.Rules.Table.bb_seen t 0x200);
  Alcotest.(check bool) "unknown bb" false (Jt_rules.Rules.Table.bb_seen t 0x300);
  Alcotest.(check int) "two rules at insn" 2
    (List.length (Jt_rules.Rules.Table.at_insn t 0x208));
  Alcotest.(check int) "noop filtered" 0
    (List.length (Jt_rules.Rules.Table.at_insn t 0x100));
  Alcotest.(check int) "size" 4 (Jt_rules.Rules.Table.size t)

let test_pic_adjustment () =
  let f =
    { Jt_rules.Rules.rf_module = "m";
      rf_digest = "";
      rf_stats = [];
      rf_rules = [ mk ~id:0x101 ~bb:0x40 ~insn:0x48 () ] }
  in
  let t = Jt_rules.Rules.Table.load f ~base:0x1000_0000 ~pic:true in
  Alcotest.(check bool) "adjusted bb" true
    (Jt_rules.Rules.Table.bb_seen t 0x1000_0040);
  Alcotest.(check bool) "link addr no longer matches" false
    (Jt_rules.Rules.Table.bb_seen t 0x40);
  (match Jt_rules.Rules.Table.at_insn t 0x1000_0048 with
  | [ r ] ->
    Alcotest.(check int) "rule bb adjusted" 0x1000_0040 r.bb;
    Alcotest.(check int) "rule insn adjusted" 0x1000_0048 r.insn
  | _ -> Alcotest.fail "expected one rule");
  (* non-PIC tables are not adjusted *)
  let t' = Jt_rules.Rules.Table.load f ~base:0x1000_0000 ~pic:false in
  Alcotest.(check bool) "non-pic unadjusted" true (Jt_rules.Rules.Table.bb_seen t' 0x40)

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

(* Regression: [Table.load] used [prev @ [ r ]] per same-insn rule
   (quadratic); the linear rebuild must still present rules in file
   order at each instruction. *)
let test_table_same_insn_order () =
  let f =
    {
      Jt_rules.Rules.rf_module = "m";
      rf_digest = "";
      rf_stats = [];
      rf_rules =
        List.init 40 (fun i -> mk ~id:(0x100 + i) ~bb:0x200 ~insn:0x208 ());
    }
  in
  let t = Jt_rules.Rules.Table.load f ~base:0 ~pic:false in
  Alcotest.(check (list int)) "file order preserved at one insn"
    (List.init 40 (fun i -> 0x100 + i))
    (List.map
       (fun (r : Jt_rules.Rules.t) -> r.rule_id)
       (Jt_rules.Rules.Table.at_insn t 0x208))

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
    ]
