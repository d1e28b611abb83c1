(* Cross-cutting property tests: word arithmetic against an Int32
   oracle, shadow-memory invariants, allocator invariants, and the AIR
   breakdown identity. *)

open Jt_isa

let gen_word = QCheck2.Gen.(map Word.of_int (int_bound Word.mask))

(* -- Word vs Int32 oracle -- *)

let i32 w = Int32.of_int (Word.to_signed w)
let back v = Int32.to_int v land Word.mask

let prop_binop name wop iop =
  QCheck2.Test.make ~name:("word " ^ name ^ " == Int32") ~count:2000
    QCheck2.Gen.(pair gen_word gen_word)
    (fun (a, b) -> wop a b = back (iop (i32 a) (i32 b)))

let prop_shift name wop iop =
  QCheck2.Test.make ~name:("word " ^ name ^ " == Int32") ~count:2000
    QCheck2.Gen.(pair gen_word (int_bound 31))
    (fun (a, n) -> wop a n = back (iop (i32 a) n))

let word_props =
  [
    prop_binop "add" Word.add Int32.add;
    prop_binop "sub" Word.sub Int32.sub;
    prop_binop "mul" Word.mul Int32.mul;
    prop_binop "and" Word.logand Int32.logand;
    prop_binop "or" Word.logor Int32.logor;
    prop_binop "xor" Word.logxor Int32.logxor;
    prop_shift "shl" Word.shl Int32.shift_left;
    prop_shift "shr" Word.shr Int32.shift_right_logical;
    prop_shift "sar" Word.sar Int32.shift_right;
    QCheck2.Test.make ~name:"word neg == Int32" ~count:2000 gen_word (fun a ->
        Word.neg a = back (Int32.neg (i32 a)));
    QCheck2.Test.make ~name:"signed roundtrip" ~count:2000 gen_word (fun a ->
        Word.of_int (Word.to_signed a) = a);
  ]

(* -- VSA interval lattice -- *)

module Vsa = Jt_analysis.Vsa

let gen_vsa_value =
  let open QCheck2.Gen in
  let itv =
    let* a = int_range (-1000) 1000 in
    let* w = int_bound 1000 in
    return { Vsa.lo = a; hi = a + w }
  in
  oneof
    [
      return Vsa.Bot;
      return Vsa.Top;
      map (fun i -> Vsa.Cst i) itv;
      map (fun i -> Vsa.Sprel i) itv;
    ]

let vsa_lattice_props =
  let open QCheck2 in
  let pair2 = Gen.pair gen_vsa_value gen_vsa_value in
  [
    Test.make ~name:"vsa leq reflexive, join idempotent" ~count:1000
      gen_vsa_value (fun a ->
        Vsa.leq_value a a && Vsa.equal_value (Vsa.join_value a a) a);
    Test.make ~name:"vsa join is an upper bound" ~count:1000 pair2
      (fun (a, b) ->
        let j = Vsa.join_value a b in
        Vsa.leq_value a j && Vsa.leq_value b j);
    Test.make ~name:"vsa join commutes" ~count:1000 pair2 (fun (a, b) ->
        Vsa.equal_value (Vsa.join_value a b) (Vsa.join_value b a));
    Test.make ~name:"vsa widen bounds both arguments" ~count:1000 pair2
      (fun (prev, next) ->
        let w = Vsa.widen_value prev next in
        Vsa.leq_value prev w && Vsa.leq_value next w);
    Test.make ~name:"vsa join dominated by widen" ~count:1000 pair2
      (fun (a, b) ->
        Vsa.leq_value (Vsa.join_value a b) (Vsa.widen_value a b));
    Test.make ~name:"vsa join monotone" ~count:1000
      (Gen.triple gen_vsa_value gen_vsa_value gen_vsa_value)
      (fun (a, b, c) ->
        (not (Vsa.leq_value a b))
        || Vsa.leq_value (Vsa.join_value a c) (Vsa.join_value b c));
    Test.make ~name:"vsa contains preserved by join" ~count:1000
      (Gen.triple gen_vsa_value gen_vsa_value (Gen.pair gen_word gen_word))
      (fun (a, b, (w, sp0)) ->
        (not (Vsa.contains ~sp0 a w))
        || Vsa.contains ~sp0 (Vsa.join_value a b) w);
  ]

(* -- VSA transfer soundness against concrete replays --

   Random straight-line code, random initial register file: after every
   instruction, the abstract register file from [transfer_regs] must
   contain the concretely computed one.  The concrete step mirrors the
   VM's word semantics (wrap mod 2^32); memory reads are modelled as an
   arbitrary value, which the abstract side must cover with Top. *)

let gen_vsa_reg = QCheck2.Gen.(map Reg.of_index (int_bound 7))

let gen_vsa_operand =
  let open QCheck2.Gen in
  oneof
    [
      map (fun v -> Insn.Imm (Word.of_int v)) (int_range (-512) 512);
      map (fun r -> Insn.Reg r) gen_vsa_reg;
    ]

let gen_vsa_insn =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun r s -> Insn.Mov (r, s)) gen_vsa_reg gen_vsa_operand;
      (let* op =
         oneofl Insn.[ Add; Sub; And; Or; Xor; Mul ]
       in
       let* rd = gen_vsa_reg in
       let* src = gen_vsa_operand in
       return (Insn.Binop (op, rd, src)));
      map (fun r -> Insn.Neg r) gen_vsa_reg;
      map (fun r -> Insn.Not r) gen_vsa_reg;
      (let* rd = gen_vsa_reg in
       let* b = gen_vsa_reg in
       let* d = int_range (-64) 64 in
       return (Insn.Lea (rd, Insn.mem_base ~disp:(Word.of_int d) b)));
      return (Insn.Push (Insn.Reg Reg.r0));
      map (fun r -> Insn.Pop r) gen_vsa_reg;
      map (fun r -> Insn.Load (Insn.W4, r, Insn.mem_base Reg.r6)) gen_vsa_reg;
    ]

let concrete_step regs i =
  let get r = regs.(Reg.index r) in
  let set r v =
    let a = Array.copy regs in
    a.(Reg.index r) <- v;
    a
  in
  let operand = function Insn.Imm v -> v | Insn.Reg r -> get r in
  let mem_addr (m : Insn.mem) =
    let base =
      match m.Insn.base with
      | Some (Insn.Breg r) -> get r
      | Some Insn.Bpc -> Word.of_int 4
      | None -> Word.of_int 0
    in
    let idx =
      match m.Insn.index with
      | Some r -> Word.mul (get r) (Word.of_int m.Insn.scale)
      | None -> Word.of_int 0
    in
    Word.add (Word.add base idx) m.Insn.disp
  in
  match i with
  | Insn.Mov (rd, src) -> set rd (operand src)
  | Insn.Lea (rd, m) -> set rd (mem_addr m)
  | Insn.Binop (op, rd, src) ->
    let a = get rd and b = operand src in
    let v =
      match op with
      | Insn.Add -> Word.add a b
      | Insn.Sub -> Word.sub a b
      | Insn.And -> Word.logand a b
      | Insn.Or -> Word.logor a b
      | Insn.Xor -> Word.logxor a b
      | Insn.Mul -> Word.mul a b
      | Insn.Shl | Insn.Shr | Insn.Sar -> assert false (* not generated *)
    in
    set rd v
  | Insn.Neg rd -> set rd (Word.neg (get rd))
  | Insn.Not rd -> set rd (Word.lognot (get rd))
  | Insn.Push _ -> set Reg.sp (Word.sub (get Reg.sp) (Word.of_int 4))
  | Insn.Pop rd ->
    (* the popped value is whatever memory holds: model it as an
       arbitrary word the abstract side must absorb as Top *)
    let regs = set rd (Word.of_int 0x1bad_cafe) in
    let get r = regs.(Reg.index r) in
    let a = Array.copy regs in
    a.(Reg.index Reg.sp) <- Word.add (get Reg.sp) (Word.of_int 4);
    a
  | Insn.Load (_, rd, _) -> set rd (Word.of_int 0x0dea_db0b)
  | _ -> regs

let prop_vsa_transfer_sound =
  QCheck2.Test.make ~name:"vsa transfer sound on concrete replays" ~count:500
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) gen_vsa_insn)
        (list_size (return Reg.count) gen_word))
    (fun (prog, regs0l) ->
      let regs0 = Array.of_list regs0l in
      let sp0 = regs0.(Reg.index Reg.sp) in
      let covers st regs =
        let ok = ref true in
        for k = 0 to Reg.count - 1 do
          if not (Vsa.contains ~sp0 st.(k) regs.(k)) then ok := false
        done;
        !ok
      in
      let rec go st regs = function
        | [] -> true
        | i :: rest ->
          let st = Vsa.transfer_regs ~trust:true ~at:0 ~len:4 i st in
          let regs = concrete_step regs i in
          covers st regs && go st regs rest
      in
      go (Vsa.entry_state ()) regs0 prog)

(* -- shadow memory invariants -- *)

type shadow_op = Poison of int * int | Unpoison of int * int

let gen_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 40)
    (let* a = int_bound 4096 in
     let* len = int_range 1 64 in
     let* p = bool in
     return (if p then Poison (a, len) else Unpoison (a, len)))

let apply_model model = function
  | Poison (a, len) ->
    for i = a to a + len - 1 do
      Hashtbl.replace model i ()
    done
  | Unpoison (a, len) ->
    for i = a to a + len - 1 do
      Hashtbl.remove model i
    done

let prop_shadow_matches_model =
  QCheck2.Test.make ~name:"shadow == reference set model" ~count:300 gen_ops
    (fun ops ->
      let sh = Jt_jasan.Shadow.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
          | Poison (a, len) ->
            Jt_jasan.Shadow.poison sh a ~len Jt_jasan.Shadow.Heap_redzone
          | Unpoison (a, len) -> Jt_jasan.Shadow.unpoison sh a ~len);
          apply_model model op)
        ops;
      (* counts agree *)
      Jt_jasan.Shadow.poisoned_count sh = Hashtbl.length model
      && (* membership agrees on a probe sweep *)
      List.for_all
        (fun a ->
          let shadow_hit = Jt_jasan.Shadow.first_poisoned sh a ~len:1 <> None in
          shadow_hit = Hashtbl.mem model a)
        (List.init 128 (fun i -> i * 33)))

(* Wraparound regression: every per-byte shadow path works modulo the
   word size, and [first_poisoned] must report the *masked* address of
   the hit.  Pre-fix it returned [a + consumed + (i - off)] unmasked, so
   a scan crossing the top of the address space reported addresses
   beyond [Word.mask]. *)
let prop_shadow_wraparound =
  QCheck2.Test.make ~name:"first_poisoned wraps modulo word size" ~count:500
    QCheck2.Gen.(
      let* poff = int_range 1 48 in
      let* plen = int_range 1 32 in
      let* soff = int_range 1 96 in
      let* slen = int_range 1 160 in
      return (poff, plen, soff, slen))
    (fun (poff, plen, soff, slen) ->
      let sh = Jt_jasan.Shadow.create () in
      let pstart = (Word.mask + 1 - poff) land Word.mask in
      let sstart = (Word.mask + 1 - soff) land Word.mask in
      Jt_jasan.Shadow.poison sh pstart ~len:plen Jt_jasan.Shadow.Heap_redzone;
      let expected =
        let rec find k =
          if k >= slen then None
          else
            let a = (sstart + k) land Word.mask in
            if (a - pstart) land Word.mask < plen then
              Some (a, Jt_jasan.Shadow.Heap_redzone)
            else find (k + 1)
        in
        find 0
      in
      Jt_jasan.Shadow.first_poisoned sh sstart ~len:slen = expected)

(* Satellite of the same wraparound family, one layer down: the string
   helpers index with [a + i], which must be masked before the per-byte
   access so a write straddling the top of the address space lands at
   the wrapped addresses (and reads back through the same window). *)
let prop_memory_string_wraparound =
  QCheck2.Test.make ~name:"write_string/read_cstring wrap modulo word size"
    ~count:300
    QCheck2.Gen.(
      let* off = int_range 1 16 in
      let* s =
        string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 1 32)
      in
      return (off, s))
    (fun (off, s) ->
      let mem = Jt_mem.Memory.create () in
      let start = (Word.mask + 1 - off) land Word.mask in
      Jt_mem.Memory.write_string mem start s;
      Jt_mem.Memory.read_cstring mem start = s
      && List.for_all
           (fun i ->
             Jt_mem.Memory.read8 mem ((start + i) land Word.mask)
             = Char.code s.[i])
           (List.init (String.length s) Fun.id))

(* Boundaries of each level of the page table: a 4 KiB page, a 256 KiB
   leaf, a 16 MiB middle level, and the top of the address space. *)
let edges = [ 0x1000; 0x4_0000; 0x100_0000; 0x7F00_0000; Word.mask + 1 ]

(* [write_string] blits a page-sized chunk at a time; it must leave
   memory exactly as the same bytes written one [write8] at a time, at
   the wrapped addresses, for strings that start anywhere near a level
   boundary and span up to three pages. *)
let prop_memory_write_string_bytewise =
  QCheck2.Test.make ~name:"write_string matches write8 across page levels"
    ~count:200
    QCheck2.Gen.(
      let* edge = oneofl edges in
      let* d = int_range (-9000) 100 in
      let* n = int_range 0 9000 in
      let* seed = int in
      return ((edge + d) land Word.mask, n, seed))
    (fun (a, n, seed) ->
      let rng = Random.State.make [| seed |] in
      let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
      let blit = Jt_mem.Memory.create () and bytewise = Jt_mem.Memory.create () in
      Jt_mem.Memory.write_string blit a s;
      String.iteri
        (fun i c ->
          Jt_mem.Memory.write8 bytewise ((a + i) land Word.mask) (Char.code c))
        s;
      List.for_all
        (fun i ->
          let x = (a + i) land Word.mask in
          Jt_mem.Memory.read8 blit x = Jt_mem.Memory.read8 bytewise x)
        (List.init (n + 64) (fun i -> i - 32)))

(* -- word-wide memory accessors --

   [read16]/[read32]/[write16]/[write32] take one page lookup when the
   access stays inside a page and fall back to the masked byte path when
   it crosses a page or the top of the address space.  Near both edges
   they must agree with the byte view: a read is the little-endian
   composition of [read8]s, and a write leaves exactly the value's low
   bytes (values beyond 32 bits and negative ones included) and no
   neighbouring byte changed. *)
let prop_memory_word_accessors =
  QCheck2.Test.make
    ~name:"read/write16/32 match read8 near page and address-space edges"
    ~count:1000
    QCheck2.Gen.(
      let* edge = oneofl edges in
      let* d = int_range (-8) 8 in
      let* width = oneofl [ 2; 4 ] in
      let* v = oneof [ int; int_bound Word.mask; int_range (-1000) (-1) ] in
      let* fill = list_repeat 16 (int_bound 255) in
      return ((edge + d) land Word.mask, width, v, fill))
    (fun (a, width, v, fill) ->
      let mem = Jt_mem.Memory.create () in
      (* the window [a-4, a+12) holds random bytes before the access *)
      let at i = (a - 4 + i) land Word.mask in
      List.iteri (fun i b -> Jt_mem.Memory.write8 mem (at i) b) fill;
      let byte i = Jt_mem.Memory.read8 mem ((a + i) land Word.mask) in
      let composed () =
        List.fold_left
          (fun acc i -> acc lor (byte i lsl (8 * i)))
          0
          (List.init width Fun.id)
      in
      let read () = Jt_mem.Memory.read mem a ~width in
      let read_ok = read () = composed () in
      Jt_mem.Memory.write mem a ~width v;
      let write_ok =
        List.for_all
          (fun i -> byte i = (v lsr (8 * i)) land 0xFF)
          (List.init width Fun.id)
        && read () = v land ((1 lsl (8 * width)) - 1)
      in
      let untouched =
        List.for_all
          (fun i ->
            let off = i - 4 in
            (off >= 0 && off < width)
            || Jt_mem.Memory.read8 mem (at i) = List.nth fill i)
          (List.init 16 Fun.id)
      in
      read_ok && write_ok && untouched)

(* -- allocator invariants -- *)

let prop_alloc_disjoint =
  QCheck2.Test.make ~name:"allocator blocks are disjoint" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (int_bound 256))
    (fun sizes ->
      let a = Jt_vm.Alloc.create () in
      Jt_vm.Alloc.set_redzone a 16;
      let blocks = List.map (fun s -> (Jt_vm.Alloc.malloc a s, s)) sizes in
      (* all user ranges (plus redzones) disjoint and 8-aligned gaps *)
      let sorted = List.sort compare blocks in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 + 16 <= a2 && disjoint rest
        | _ -> true
      in
      disjoint sorted)

(* -- allocator/shadow lifecycle roundtrip --

   Drive the JASan shadow maintenance with randomized alloc/free/realloc
   cycles over a footprint-recycling allocator with a tiny quarantine,
   so blocks retire and get reused aggressively.  Invariant after every
   step: no byte of any live block is poisoned — neither stale
   [Heap_freed] surviving a reallocation at a recycled address, nor
   spillover from a neighbour's free (the zero-size regression). *)

type life_op = Lalloc of int | Lfree of int | Lrealloc of int * int

let gen_life_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 60)
    (oneof
       [
         map (fun s -> Lalloc s) (int_bound 48);
         map (fun i -> Lfree i) (int_bound 1000);
         map2 (fun i s -> Lrealloc (i, s)) (int_bound 1000) (int_bound 48);
       ])

let prop_lifecycle_shadow_roundtrip =
  QCheck2.Test.make ~name:"alloc/free/realloc shadow roundtrip (reuse mode)"
    ~count:200 gen_life_ops (fun ops ->
      let alloc = Jt_vm.Alloc.create ~reuse:true ~quarantine_capacity:64 () in
      let rt = Jt_jasan.Jasan.Rt.create () in
      Jt_vm.Alloc.set_redzone alloc Jt_jasan.Jasan.redzone_bytes;
      Jt_vm.Alloc.subscribe alloc
        (Jt_jasan.Jasan.Rt.on_alloc_event rt
           ~report:(fun ~kind:_ ~addr:_ -> ()));
      let sh = Jt_jasan.Jasan.Rt.shadow rt in
      let live = ref [] in
      let ok = ref true in
      let check_live () =
        List.iter
          (fun (a, s) ->
            if s > 0 && Jt_jasan.Shadow.first_poisoned sh a ~len:s <> None
            then ok := false)
          !live
      in
      let take l i =
        let n = List.length l in
        (fst (List.nth l (i mod n)), List.filteri (fun k _ -> k <> i mod n) l)
      in
      let apply = function
        | Lalloc s -> live := (Jt_vm.Alloc.malloc alloc s, s) :: !live
        | Lfree i -> (
          match !live with
          | [] -> ()
          | l ->
            let a, rest = take l i in
            live := rest;
            Jt_vm.Alloc.free alloc a)
        | Lrealloc (i, s) -> (
          match !live with
          | [] -> live := [ (Jt_vm.Alloc.malloc alloc s, s) ]
          | l ->
            (* libc order: allocate the new block, then free the old *)
            let a, rest = take l i in
            let b = Jt_vm.Alloc.malloc alloc s in
            Jt_vm.Alloc.free alloc a;
            live := (b, s) :: rest)
      in
      List.iter
        (fun op ->
          apply op;
          check_live ())
        ops;
      !ok)

(* -- AIR identities -- *)

let test_air_breakdown_identity () =
  let m = Progs.indirect_prog () in
  let tool, rt = Jt_jcfi.Jcfi.create () in
  let _ =
    Janitizer.Driver.run ~tool ~registry:(Progs.registry_for m) ~main:"indirect" ()
  in
  let fwd, bwd = Jt_jcfi.Air.dynamic_breakdown rt in
  let total = Jt_jcfi.Air.dynamic rt in
  (* |T| = 1 per ret: backward AIR = 100*(1 - 1/S); on the tiny test
     corpus S is only a few hundred bytes *)
  Alcotest.(check bool) "backward ~100%" true (bwd > 99.0);
  Alcotest.(check bool) "forward below backward" true (fwd <= bwd);
  Alcotest.(check bool) "total between parts" true (total >= fwd && total <= bwd)

let test_air_empty_is_100 () =
  Alcotest.(check (float 0.001)) "empty" 100.0 (Jt_jcfi.Air.air ~sizes:[] ~total:1000.0)

let () =
  Alcotest.run "properties"
    [
      ("word", List.map QCheck_alcotest.to_alcotest word_props);
      ( "vsa",
        List.map QCheck_alcotest.to_alcotest
          (vsa_lattice_props @ [ prop_vsa_transfer_sound ]) );
      ( "shadow",
        [
          QCheck_alcotest.to_alcotest prop_shadow_matches_model;
          QCheck_alcotest.to_alcotest prop_shadow_wraparound;
        ] );
      ( "memory",
        [
          QCheck_alcotest.to_alcotest prop_memory_string_wraparound;
          QCheck_alcotest.to_alcotest prop_memory_word_accessors;
          QCheck_alcotest.to_alcotest prop_memory_write_string_bytewise;
        ] );
      ( "alloc",
        [
          QCheck_alcotest.to_alcotest prop_alloc_disjoint;
          QCheck_alcotest.to_alcotest prop_lifecycle_shadow_roundtrip;
        ] );
      ( "air",
        [
          Alcotest.test_case "breakdown identity" `Quick test_air_breakdown_identity;
          Alcotest.test_case "empty" `Quick test_air_empty_is_100;
        ] );
    ]
