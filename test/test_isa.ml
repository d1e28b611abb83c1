(* Unit and property tests for the ISA: words, flags, encode/decode. *)

open Jt_isa

(* Decode from the start of a byte string, as if loaded at [at]. *)
let decode_string s ~at =
  Decode.instr (Bytes.of_string s) ~pos:0 ~lim:(String.length s) ~at

let test_word_wrap () =
  Alcotest.(check int) "add wraps" 0 (Word.add 0xFFFF_FFFF 1);
  Alcotest.(check int) "sub wraps" 0xFFFF_FFFF (Word.sub 0 1);
  Alcotest.(check int) "signed" (-1) (Word.to_signed 0xFFFF_FFFF);
  Alcotest.(check int) "signed min" (-0x8000_0000) (Word.to_signed 0x8000_0000);
  Alcotest.(check int) "sar" 0xFFFF_FFFF (Word.sar 0x8000_0000 31);
  Alcotest.(check int) "shr" 1 (Word.shr 0x8000_0000 31);
  Alcotest.(check int) "sext8" 0xFFFF_FF80 (Word.sign_extend 1 0x80);
  Alcotest.(check int) "trunc2" 0x1234 (Word.truncate 2 0xAB_1234)

let test_flags_set () =
  let s = Flags.of_list [ Flags.Zf; Flags.Cf ] in
  Alcotest.(check bool) "mem zf" true (Flags.mem Flags.Zf s);
  Alcotest.(check bool) "mem sf" false (Flags.mem Flags.Sf s);
  let u = Flags.union s (Flags.singleton Flags.Sf) in
  Alcotest.(check int) "card" 3 (List.length (Flags.to_list u));
  Alcotest.(check bool) "diff" false Flags.(mem Zf (diff u (singleton Zf)));
  let st = Flags.create () in
  Flags.set_arith st ~result:0 ~carry:true ~overflow:false;
  Alcotest.(check bool) "zf" true st.zf;
  Alcotest.(check bool) "cf" true st.cf;
  let packed = Flags.pack st in
  let st2 = Flags.create () in
  Flags.unpack st2 packed;
  Alcotest.(check int) "roundtrip" packed (Flags.pack st2)

(* -- encode/decode roundtrip, exhaustive-ish over forms -- *)

let sample_mems =
  [
    Insn.mem_abs 0x1234;
    Insn.mem_base Reg.r3 ~disp:(-8 land Word.mask);
    Insn.mem_base_index ~disp:16 ~scale:4 Reg.fp Reg.r2;
    Insn.mem_pcrel 0x40;
    { Insn.base = None; index = Some Reg.r9; scale = 8; disp = 0 };
  ]

let sample_insns =
  let open Insn in
  [
    Nop;
    Halt;
    Ret;
    Syscall 3;
    Load_canary Reg.r7;
    Mov (Reg.r1, Reg Reg.r2);
    Mov (Reg.r1, Imm 0xDEAD_BEEF);
    Neg Reg.r4;
    Not Reg.r5;
    Cmp (Reg.r1, Reg Reg.r2);
    Cmp (Reg.r1, Imm 77);
    Test (Reg.r0, Imm 1);
    Test (Reg.r0, Reg Reg.r0);
    Push (Reg Reg.fp);
    Push (Imm 1234);
    Pop Reg.r12;
    Jmp 0x400100;
    Call 0x400200;
    Ret;
    Insn.jmp_ind_reg Reg.r3;
    Insn.call_ind_reg Reg.r11;
  ]
  @ List.map (fun m -> Lea (Reg.r1, m)) sample_mems
  @ List.map (fun m -> Load (W4, Reg.r2, m)) sample_mems
  @ List.map (fun m -> Load (W1, Reg.r2, m)) sample_mems
  @ List.map (fun m -> Store (W2, m, Reg Reg.r3)) sample_mems
  @ List.map (fun m -> Store (W4, m, Imm 99)) sample_mems
  @ List.map (fun m -> Insn.jmp_ind_mem m) sample_mems
  @ List.map (fun m -> Insn.call_ind_mem m) sample_mems
  @ List.map (fun op -> Binop (op, Reg.r6, Reg Reg.r7))
      [ Add; Sub; And; Or; Xor; Shl; Shr; Sar; Mul ]
  @ List.map (fun op -> Binop (op, Reg.r6, Imm 3))
      [ Add; Sub; And; Or; Xor; Shl; Shr; Sar; Mul ]
  @ List.map (fun c -> Jcc (c, 0x400300))
      [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]

let test_roundtrip () =
  List.iter
    (fun i ->
      let at = 0x400000 in
      let s = Encode.encode ~at i in
      Alcotest.(check int)
        (Insn.to_string i ^ " length")
        (String.length s) (Encode.length i);
      match decode_string s ~at with
      | None -> Alcotest.failf "decode failed for %s" (Insn.to_string i)
      | Some (i', len) ->
        Alcotest.(check int) "len" (String.length s) len;
        if i <> i' then
          Alcotest.failf "roundtrip mismatch: %s vs %s" (Insn.to_string i)
            (Insn.to_string i'))
    sample_insns

let test_pcrel_is_position_independent () =
  (* The same direct jump encoded at two addresses has different bytes but
     decodes to the same absolute target from each location. *)
  let i = Insn.Jmp 0x400500 in
  let s1 = Encode.encode ~at:0x400000 i in
  let s2 = Encode.encode ~at:0x400100 i in
  Alcotest.(check bool) "bytes differ" true (s1 <> s2);
  (match decode_string s1 ~at:0x400000 with
  | Some (Insn.Jmp t, _) -> Alcotest.(check int) "t1" 0x400500 t
  | _ -> Alcotest.fail "decode 1");
  match decode_string s2 ~at:0x400100 with
  | Some (Insn.Jmp t, _) -> Alcotest.(check int) "t2" 0x400500 t
  | _ -> Alcotest.fail "decode 2"

let test_invalid_bytes () =
  (* Opcode 0 and high opcodes are invalid. *)
  Alcotest.(check bool)
    "zero" true
    (decode_string "\x00\x00\x00" ~at:0 = None);
  Alcotest.(check bool)
    "high" true
    (decode_string "\xF0\x00\x00" ~at:0 = None);
  (* Truncated instruction. *)
  Alcotest.(check bool)
    "trunc" true
    (decode_string "\x07\x01" ~at:0 = None);
  (* Bad register index. *)
  Alcotest.(check bool)
    "badreg" true
    (decode_string "\x06\x20\x01" ~at:0 = None)

(* [pos] and [lim] bound what the decoder reads: an instruction that
   needs a byte at or past [lim] does not decode, whatever follows. *)
let test_buffer_bounds () =
  let i = Insn.Mov (Reg.r1, Insn.Imm 0x1234_5678) in
  let s = Encode.encode ~at:0x1000 i in
  let n = String.length s in
  let b = Bytes.of_string ("\x01\x01" ^ s ^ "\x01") in
  let dec ~pos ~lim = Decode.instr b ~pos ~lim ~at:0x1000 in
  Alcotest.(check bool) "at an offset" true (dec ~pos:2 ~lim:(Bytes.length b) = Some (i, n));
  Alcotest.(check bool) "exact limit" true (dec ~pos:2 ~lim:(2 + n) = Some (i, n));
  Alcotest.(check bool) "one byte short" true (dec ~pos:2 ~lim:(1 + n) = None);
  Alcotest.(check bool) "start at the limit" true (dec ~pos:2 ~lim:2 = None);
  Alcotest.(check bool) "u32 cut by the limit" true (dec ~pos:2 ~lim:4 = None);
  Alcotest.check_raises "limit past the buffer" (Invalid_argument "Decode.instr")
    (fun () -> ignore (dec ~pos:0 ~lim:(Bytes.length b + 1)));
  Alcotest.check_raises "negative position" (Invalid_argument "Decode.instr")
    (fun () -> ignore (dec ~pos:(-1) ~lim:2))

(* -- qcheck: random instructions roundtrip -- *)

open Gen_isa

let prop_roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip" ~count:2000 gen_insn
    (fun i ->
      let at = 0x10000 in
      let s = Encode.encode ~at i in
      match decode_string s ~at with
      | Some (i', len) -> i = i' && len = String.length s
      | None -> false)

let prop_length_positive =
  QCheck2.Test.make ~name:"length in 1..13" ~count:2000 gen_insn (fun i ->
      let l = Encode.length i in
      l >= 1 && l <= 13)

(* The masks liveness folds over name exactly the registers of the lists
   the other passes read. *)
let prop_masks =
  QCheck2.Test.make ~name:"use/def masks match the lists" ~count:2000 gen_insn
    (fun i ->
      let mask = List.fold_left (fun m r -> m lor (1 lsl Reg.index r)) 0 in
      Insn.use_mask i = mask (Insn.uses i) && Insn.def_mask i = mask (Insn.defs i))

let () =
  Alcotest.run "isa"
    [
      ( "word-flags",
        [
          Alcotest.test_case "word wrap" `Quick test_word_wrap;
          Alcotest.test_case "flags" `Quick test_flags_set;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip samples" `Quick test_roundtrip;
          Alcotest.test_case "pcrel" `Quick test_pcrel_is_position_independent;
          Alcotest.test_case "invalid" `Quick test_invalid_bytes;
          Alcotest.test_case "buffer bounds" `Quick test_buffer_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_length_positive; prop_masks ]
      );
    ]
