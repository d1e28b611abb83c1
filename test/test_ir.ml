(* The serializable IR and its content-addressed store (DESIGN.md §13):
   codec round trips (CPA sites included), corrupt-store rejection with
   transparent re-analysis down to single flipped bytes, warm-load
   equivalence with the direct analyzer, single-flight under domain
   parallelism, LRU/gc behavior, the [Driver.analyze_all]
   registry-ordering contract, and disjoint JELF sections (which a warm
   load's [section_at] re-decode relies on). *)

open Jt_ir

let scratch_root =
  let f = Filename.temp_file "jt_ir_test" "" in
  Sys.remove f;
  f

let tmpdir sub = Filename.concat scratch_root sub

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir sub f =
  let dir = tmpdir sub in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- generators: arbitrary well-formed IR values ---------------- *)
(* Stay inside the codec's field widths: u32 fields get non-negative
   ints, i32 fields small signed ints, u8 fields 0..255. *)

let gen_u32 = QCheck2.Gen.(int_bound 0xFFFF_FFFF)
let gen_addr = QCheck2.Gen.(int_bound 0xFF_FFFF)
let gen_i32 = QCheck2.Gen.(int_range (-0x4000_0000) 0x3FFF_FFFF)
let gen_u8 = QCheck2.Gen.(int_bound 255)
let small l g = QCheck2.Gen.(list_size (int_bound l) g)

let gen_mem =
  let open QCheck2.Gen in
  map (fun (base, index, scale, disp) ->
      { Ir.im_base = base; im_index = index; im_scale = scale; im_disp = disp })
    (tup4 (int_range (-2) 7) (int_range (-1) 7) gen_u8 gen_u32)

let gen_access =
  let open QCheck2.Gen in
  map (fun (addr, mem, width, st) ->
      { Ir.ia_addr = addr; ia_mem = mem; ia_width = width; ia_is_store = st })
    (tup4 gen_addr gen_mem (int_range 1 8) bool)

let gen_scev =
  let open QCheck2.Gen in
  map (fun ((head, pre, at, ivar, init), (bound, incl, aff, inv)) ->
      {
        Ir.is_head = head;
        is_preheader = pre;
        is_check_at = at;
        is_ivar = ivar;
        is_init = init;
        is_bound = bound;
        is_bound_incl = incl;
        is_affine = aff;
        is_invariant = inv;
      })
    (pair
       (tup5 gen_addr gen_addr gen_addr (int_bound 7) gen_i32)
       (tup4
          (oneof
             [
               map (fun v -> Ir.Ibnd_imm v) gen_i32;
               map (fun r -> Ir.Ibnd_reg r) (int_bound 7);
             ])
          bool (small 3 gen_access) (small 3 gen_access)))

let gen_canary =
  let open QCheck2.Gen in
  map (fun (fn, store, after, disp, loads) ->
      {
        Ir.ic_fn = fn;
        ic_store = store;
        ic_after = after;
        ic_disp = disp;
        ic_loads = loads;
      })
    (tup5 gen_addr gen_addr gen_addr gen_i32 (small 3 gen_addr))

let gen_fn =
  let open QCheck2.Gen in
  map (fun ((entry, live_all), (live, canaries, scev)) ->
      {
        Ir.if_entry = entry;
        if_live_all = live_all;
        if_live = live;
        if_canaries = canaries;
        if_scev = scev;
      })
    (pair (pair gen_addr bool)
       (tup3
          (small 4 (tup3 gen_addr (int_bound 0xFFFF) gen_u8))
          (small 2 gen_canary) (small 2 gen_scev)))

let gen_cpa_site =
  let open QCheck2.Gen in
  map (fun (fn, site, targets, witness) ->
      {
        Jt_analysis.Cpa.cs_fn = fn;
        cs_site = site;
        cs_targets = targets;
        (* a Top site carries no witness *)
        cs_witness = (if targets = None then 0 else witness);
      })
    (tup4 gen_addr gen_addr (option (small 4 gen_addr)) gen_addr)

let gen_ir =
  let open QCheck2.Gen in
  map (fun ((mname, reliable, insns, leaders, entries), (jts, ptrs, fns, cpa)) ->
      {
        Ir.ir_module = mname;
        ir_digest = Digest.string mname;
        ir_reliable = reliable;
        ir_insns = Array.of_list insns;
        ir_leaders = leaders;
        ir_func_entries = entries;
        ir_jump_tables = jts;
        ir_code_ptrs = ptrs;
        ir_fns = fns;
        ir_cpa = cpa;
      })
    (pair
       (tup5 string_small bool
          (small 6 (pair gen_addr (int_range 1 8)))
          (small 4 gen_addr) (small 4 gen_addr))
       (tup4
          (small 2 (pair gen_addr (small 3 gen_addr)))
          (small 4 gen_addr) (small 3 gen_fn) (small 3 gen_cpa_site)))

let prop_roundtrip =
  QCheck2.Test.make ~name:"decode (encode ir) = ir" ~count:300 gen_ir (fun ir ->
      Ir.decode (Ir.encode ir) = ir)

(* Functions at their smallest encoding, packed at the end of the
   payload: each list's element bound must admit them. *)
let test_smallest_fns_roundtrip () =
  let fn a =
    { Ir.if_entry = a; if_live_all = false; if_live = []; if_canaries = [];
      if_scev = [] }
  in
  let ir =
    { (Janitizer.Static_analyzer.to_ir
         (Janitizer.Static_analyzer.compute (Progs.sum_prog ~n:20 ())))
      with Ir.ir_fns = List.map fn [ 0x100; 0x200; 0x300 ]; ir_cpa = [] }
  in
  Alcotest.(check bool) "round-trips" true (Ir.decode (Ir.encode ir) = ir)

(* ---- codec rejection ------------------------------------------- *)

let format = Ir.magic

let decode_error = Progs.expect_decode_error ~format

let sample_ir () =
  Janitizer.Static_analyzer.to_ir
    (Janitizer.Static_analyzer.compute (Progs.sum_prog ~n:20 ()))

(* Re-seal an encoding's payload in a fresh frame, so a structural
   defect reaches the parser instead of stopping at the checksum. *)
let reseal ?(version = Ir.schema_version) payload =
  Jt_codec.Codec.seal ~magic:Ir.magic ~version (fun b ->
      Buffer.add_string b payload)

(* magic, u16 version and u32 length before the payload; MD5 after it *)
let header_len = String.length Ir.magic + 6

let payload_of enc =
  String.sub enc header_len (String.length enc - header_len - 16)

let test_decode_rejects () =
  let enc = Ir.encode (sample_ir ()) in
  decode_error ~reason:"truncated" "truncated" (fun () ->
      Ir.decode (String.sub enc 0 (String.length enc / 2)));
  decode_error ~reason:"truncated" "empty" (fun () -> Ir.decode "");
  decode_error ~reason:"bad magic" "bad magic" (fun () ->
      Ir.decode ("XXXX" ^ String.sub enc 4 (String.length enc - 4)));
  let bumped = Bytes.of_string enc in
  Bytes.set bumped 4 (Char.chr (Ir.schema_version + 1));
  decode_error
    ~reason:
      (Printf.sprintf "version %d, expected %d" (Ir.schema_version + 1)
         Ir.schema_version)
    "wrong schema version"
    (fun () -> Ir.decode (Bytes.to_string bumped));
  (* schema 4 still carried a per-function stack record, schema 5 VSA
     in-states and def-use chains, schema 6 blocks, idoms, loops and
     names; under a valid checksum each is a typed error, not a
     misparse *)
  List.iter
    (fun v ->
      decode_error
        ~reason:(Printf.sprintf "version %d, expected %d" v Ir.schema_version)
        (Printf.sprintf "schema %d entry" v)
        (fun () -> Ir.decode (reseal ~version:v (payload_of enc))))
    [ 4; 5; 6 ];
  decode_error ~reason:"trailing bytes" "trailing bytes" (fun () ->
      Ir.decode (enc ^ "\x00"))

(* Every byte of bzip2's main-module entry gets one flipped bit (bit
   [i mod 8] of byte [i], so every bit position is covered), and every
   truncation is tried: the frame rejects them all.  Flipping all eight
   bits of each byte would cost eight MD5s of the entry per byte. *)
let test_byte_flips () =
  Progs.sealed_sweep ~format
    ~bits_of:(fun i -> [ i land 7 ])
    Ir.decode
    (Ir.encode (Janitizer.Static_analyzer.to_ir (Lazy.force Progs.bzip2_analysis)))

let test_real_module_roundtrip () =
  let ir = sample_ir () in
  Alcotest.(check bool) "compute IR round-trips" true
    (Ir.decode (Ir.encode ir) = ir)

let test_decode_rejects_sealed () =
  let enc = Ir.encode (sample_ir ()) in
  Alcotest.(check bool) "reseal is the identity" true
    (reseal (payload_of enc) = enc);
  decode_error ~reason:"trailing bytes" "trailing bytes under a valid checksum"
    (fun () -> Ir.decode (reseal (payload_of enc ^ "xx")))

let bzip2 = lazy (Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "bzip2"))

let bzip2_module name =
  List.find
    (fun (m : Jt_obj.Objfile.t) -> String.equal m.name name)
    (Lazy.force bzip2).Jt_workloads.Specgen.w_registry

(* bzip2's main module has a resolved indirect call site, libc.so two
   Top ones: between them both shapes of [ir_cpa] entry. *)
let cpa_modules () = [ bzip2_module "bzip2"; bzip2_module "libc.so" ]

let test_cpa_roundtrip () =
  let sites =
    List.concat_map
      (fun m ->
        let ir =
          Janitizer.Static_analyzer.to_ir (Janitizer.Static_analyzer.compute m)
        in
        Alcotest.(check bool)
          (m.Jt_obj.Objfile.name ^ " round-trips")
          true
          (Ir.decode (Ir.encode ir) = ir);
        ir.Ir.ir_cpa)
      (cpa_modules ())
  in
  let resolved, top =
    List.partition (fun (s : Jt_analysis.Cpa.site) -> s.cs_targets <> None) sites
  in
  Alcotest.(check bool) "resolved sites covered" true (resolved <> []);
  Alcotest.(check bool) "Top sites covered" true (top <> [])

(* ---- store robustness: every corruption degrades to re-analysis - *)

let store_entry_path dir digest = Filename.concat dir (Digest.to_hex digest ^ ".jtir")

(* Populate [dir] with a valid entry for [m], then [mangle] the file and
   check a fresh store re-runs the compute function (and counts the
   rejection). *)
let check_corrupt_reanalyzes name mangle =
  with_dir name (fun dir ->
      let m = Progs.sum_prog ~n:20 () in
      let digest = Jt_obj.Objfile.digest m in
      let st = Store.create ~dir () in
      let computes = ref 0 in
      let compute () =
        incr computes;
        Janitizer.Static_analyzer.to_ir (Janitizer.Static_analyzer.compute m)
      in
      let ir = Store.find_or_compute st ~digest ~name:m.name compute in
      Alcotest.(check int) (name ^ ": cold miss computes") 1 !computes;
      mangle (store_entry_path dir digest);
      (* fresh handle: the memory layer must not mask the disk damage *)
      let st2 = Store.create ~dir () in
      let ir' = Store.find_or_compute st2 ~digest ~name:m.name compute in
      Alcotest.(check int) (name ^ ": corrupt entry recomputed") 2 !computes;
      Alcotest.(check bool) (name ^ ": recomputed IR identical") true (ir = ir');
      let s = Store.stats st2 in
      Alcotest.(check int) (name ^ ": rejection counted") 1 s.Store.st_corrupt;
      Alcotest.(check int) (name ^ ": counted as miss") 1 s.st_misses;
      (* the recompute republished a good entry: next fresh handle hits disk *)
      let st3 = Store.create ~dir () in
      ignore (Store.find_or_compute st3 ~digest ~name:m.name compute);
      Alcotest.(check int) (name ^ ": republished entry served") 2 !computes;
      Alcotest.(check int) (name ^ ": disk hit after repair") 1
        (Store.stats st3).st_disk_hits)

let rewrite path f =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f data);
  close_out oc

(* The warning and the [Store_corrupt] event carry the decode error as
   the codec prints it: format, offset and reason. *)
let test_store_truncated () =
  Jt_trace.Trace.enable ();
  Fun.protect ~finally:Jt_trace.Trace.disable (fun () ->
      check_corrupt_reanalyzes "trunc" (fun p ->
          rewrite p (fun d -> String.sub d 0 (String.length d / 3)));
      match
        List.filter_map
          (function Jt_trace.Trace.Store_corrupt { why; _ } -> Some why | _ -> None)
          (Jt_trace.Trace.events ())
      with
      | [ why ] ->
        Alcotest.(check string) "event names the decode error"
          "JTIR decode error at byte 10: truncated" why
      | l -> Alcotest.failf "%d Store_corrupt events, expected 1" (List.length l))

let test_store_garbage () =
  check_corrupt_reanalyzes "garbage" (fun p ->
      rewrite p (fun d -> String.map (fun c -> Char.chr (Char.code c lxor 0x5A)) d))

let test_store_wrong_magic () =
  check_corrupt_reanalyzes "magic" (fun p ->
      rewrite p (fun d -> "NOPE" ^ String.sub d 4 (String.length d - 4)))

let test_store_wrong_version () =
  check_corrupt_reanalyzes "version" (fun p ->
      rewrite p (fun d ->
          let b = Bytes.of_string d in
          Bytes.set b 4 (Char.chr (Ir.schema_version + 1));
          Bytes.to_string b));
  check_corrupt_reanalyzes "schema4" (fun p ->
      rewrite p (fun d -> reseal ~version:4 (payload_of d)));
  List.iter
    (fun v ->
      check_corrupt_reanalyzes (Printf.sprintf "schema%d" v) (fun p ->
          rewrite p (fun d -> reseal ~version:v (payload_of d))))
    [ 5; 6 ]

let test_store_stale_digest () =
  (* The file decodes fine but records a different module's digest — the
     module was rebuilt and a hash collision on the file name is being
     simulated; the store must reject rather than serve stale facts. *)
  check_corrupt_reanalyzes "stale" (fun p ->
      let other =
        Janitizer.Static_analyzer.to_ir
          (Janitizer.Static_analyzer.compute (Progs.sum_prog ~n:21 ()))
      in
      rewrite p (fun _ -> Ir.encode other))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rules_bytes tool sa =
  Jt_rules.Rules.encode_file (tool.Janitizer.Tool.t_static sa)

(* Flip every byte after the magic of a stored entry, one at a time: each
   warm [analyze] must return (a rejected entry degrades to re-analysis)
   and yield the cold JASan and JCFI rules exactly.  bzip2's libm.so
   entry is the smallest in its registry with real functions, which
   keeps one analysis per byte to a few seconds. *)
let test_store_every_byte_flipped () =
  with_dir "flip" (fun dir ->
      let m = bzip2_module "libm.so" in
      let jasan, _ = Jt_jasan.Jasan.create () in
      let jcfi, _ = Jt_jcfi.Jcfi.create () in
      let rules sa = (rules_bytes jasan sa, rules_bytes jcfi sa) in
      let analyze () =
        Janitizer.Static_analyzer.analyze ~store:(Store.create ~dir ()) m
      in
      let cold = rules (analyze ()) in
      let path = store_entry_path dir (Jt_obj.Objfile.digest m) in
      let good = read_file path in
      for i = String.length Ir.magic to String.length good - 1 do
        rewrite path (fun _ ->
            String.mapi
              (fun k c -> if k = i then Char.chr (Char.code c lxor 0xFF) else c)
              good);
        match rules (analyze ()) with
        | r -> if r <> cold then Alcotest.failf "byte %d flipped: rules differ" i
        | exception e ->
          Alcotest.failf "byte %d flipped: %s" i (Printexc.to_string e)
      done)

(* ---- warm load ≡ direct analysis -------------------------------- *)

module Sa = Janitizer.Static_analyzer

(* Everything a tool can read off a CFG: each block's instruction
   addresses, terminator and successor/predecessor lists (in order: the
   predecessor order feeds [Dataflow] and SCEV's preheader pick), and
   each function's name, blocks, idoms and natural loops (in order),
   and its block-index edges and instruction offsets. *)
let cfg_shape (cfg : Jt_cfg.Cfg.t) =
  let blocks =
    Array.to_list cfg.c_blocks
    |> List.map (fun (b : Jt_cfg.Cfg.block) ->
           ( b.b_addr,
             Array.map (fun (i : Jt_disasm.Disasm.insn_info) -> i.d_addr) b.b_insns,
             b.b_term,
             b.b_succs,
             b.b_preds ))
  in
  let fns =
    List.map
      (fun (fn : Jt_cfg.Cfg.fn) ->
        ( fn.f_entry,
          fn.f_name,
          List.map
            (fun (b : Jt_cfg.Cfg.block) ->
              (b.b_addr, Jt_cfg.Domtree.idom fn.f_dom b.b_addr))
            (Jt_cfg.Cfg.fn_blocks fn),
          List.map
            (fun (l : Jt_cfg.Cfg.loop) ->
              (l.l_head, Jt_cfg.Cfg.Iset.elements l.l_body))
            fn.f_loops,
          (fn.f_succs, fn.f_preds, fn.f_first) ))
      (Jt_cfg.Cfg.functions cfg)
  in
  (blocks, fns)

(* A cold-code module: a registry C sheet with one driver unit and its
   code bloated, so it is large and its functions run about once. *)
let bloated_module () =
  let s =
    { (Jt_workloads.Sheet.find "gcc") with
      Jt_workloads.Sheet.s_name = "gcc_cold_150";
      s_code_bloat = 150;
      s_units = 1 }
  in
  (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_main

(* Every registry module, libc, libm, ld.so and one bloated module, each
   once. *)
let equivalence_modules () =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun s -> (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_registry)
    Jt_workloads.Sheet.all
  @ [ Jt_workloads.Stdlibs.libc; Jt_workloads.Stdlibs.libm;
      Jt_loader.Loader.ld_so; bloated_module () ]
  |> List.filter (fun m ->
         let d = Jt_obj.Objfile.digest m in
         (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true))

(* ---- JELF sections: disjoint, or the module does not decode ---- *)

let overlapping_sections (m : Jt_obj.Objfile.t) =
  let open Jt_obj.Section in
  let rec pairs = function
    | [] -> []
    | a :: rest ->
      List.filter_map
        (fun b ->
          if size a > 0 && size b > 0 && a.vaddr < end_vaddr b
             && b.vaddr < end_vaddr a
          then Some (a.name ^ "/" ^ b.name)
          else None)
        rest
      @ pairs rest
  in
  pairs m.sections

let two_section_module a b =
  let sec (name, vaddr, size) =
    Jt_obj.Section.make ~name ~vaddr ~is_code:false (String.make size '\x00')
  in
  {
    Jt_obj.Objfile.name = "two-sections";
    kind = Jt_obj.Objfile.Shared;
    sections = [ sec a; sec b ];
    symbols = [];
    symtab_level = Jt_obj.Objfile.Full;
    relocs = [];
    imports = [];
    exports = [];
    deps = [];
    entry = None;
    features = [];
  }

let test_overlapping_sections () =
  let roundtrips a b =
    let m = two_section_module a b in
    Alcotest.(check bool) "decodes to itself" true
      (Jt_obj.Jelf.read (Jt_obj.Jelf.write m) = m)
  in
  roundtrips (".a", 0x2000, 16) (".b", 0x2010, 16);
  roundtrips (".b", 0x2010, 16) (".a", 0x2000, 16);
  roundtrips (".a", 0x2000, 16) (".empty", 0x2008, 0);
  List.iter
    (fun (a, b) ->
      let enc = Jt_obj.Jelf.write (two_section_module a b) in
      Progs.expect_decode_error ~format:"JELF1"
        ~reason:"sections .a and .b overlap" "overlap" (fun () ->
          Jt_obj.Jelf.read enc))
    [
      ((".a", 0x2000, 16), (".b", 0x200f, 16));
      ((".b", 0x200f, 16), (".a", 0x2000, 16));
      ((".a", 0x2000, 16), (".b", 0x2004, 4));
    ]

(* Every registry module, library and bloated module, and every module
   of the C workloads' emitted registries (JASan and JCFI), has disjoint
   sections and so decodes from its own container. *)
let test_registry_sections_disjoint () =
  let emitted =
    List.concat_map
      (fun (s : Jt_workloads.Sheet.t) ->
        if s.s_lang <> Jt_workloads.Sheet.C then []
        else
          let w = Jt_workloads.Specgen.build s in
          List.concat_map
            (fun tool ->
              match
                Jt_emit.Emit.emit_program ~tool ~registry:w.w_registry
                  ~main:s.s_name ()
              with
              | Ok p -> p.Jt_emit.Emit.p_registry
              | Error (n, r) ->
                Alcotest.failf "%s: %s refused: %s" s.s_name n
                  (Jt_emit.Emit.refusal_to_string r))
            [ Jt_emit.Emit.Asan { elide = true };
              Jt_emit.Emit.Cfi Jt_jcfi.Jcfi.default_config ])
      Jt_workloads.Sheet.all
  in
  let modules = equivalence_modules () @ emitted in
  Alcotest.(check bool) "emitted modules among them" true
    (List.exists
       (fun m -> Jt_obj.Objfile.find_section m Jt_emit.Emit.text_section_name <> None)
       modules);
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      Alcotest.(check (list string)) (m.name ^ ": overlapping sections") []
        (overlapping_sections m);
      ignore (Jt_obj.Jelf.read (Jt_obj.Jelf.write m)))
    modules

(* Cold through a store, then warm through a fresh handle over the same
   directory (the disk decode path, not the memory LRU): no warm
   [compute], and the warm analysis equals the cold one in its CFG, its
   IR, its recomputed VSA and the JASan and JCFI rule bytes. *)
let test_warm_load_equivalence () =
  with_dir "warm" (fun dir ->
      let modules = Progs.sum_prog ~n:30 () :: equivalence_modules () in
      let jasan, _ = Jt_jasan.Jasan.create () in
      let jcfi, _ = Jt_jcfi.Jcfi.create () in
      let before = Sa.analyses_performed () in
      let cold = List.map (Sa.analyze ~store:(Store.create ~dir ())) modules in
      let mid = Sa.analyses_performed () in
      Alcotest.(check int) "cold run analyzed each module once"
        (List.length modules) (mid - before);
      let st2 = Store.create ~dir () in
      let warm = List.map (Sa.analyze ~store:st2) modules in
      Alcotest.(check int) "warm run analyzed nothing" 0
        (Sa.analyses_performed () - mid);
      Alcotest.(check int) "warm run hit the disk" (List.length modules)
        (Store.stats st2).Store.st_disk_hits;
      Alcotest.(check bool) "ld.so and a bloated module among them" true
        (List.exists (fun (m : Jt_obj.Objfile.t) -> m.name = "ld.so") modules
        && List.exists
             (fun (m : Jt_obj.Objfile.t) -> m.name = "gcc_cold_150")
             modules);
      List.iter2
        (fun (c : Sa.t) (w : Sa.t) ->
          let name = c.sa_mod.Jt_obj.Objfile.name in
          let check what ok =
            if not ok then Alcotest.failf "%s: warm %s differs" name what
          in
          check "CFG" (cfg_shape c.sa_cfg = cfg_shape w.sa_cfg);
          check "IR" (Sa.to_ir c = Sa.to_ir w);
          check "JASan rules" (rules_bytes jasan c = rules_bytes jasan w);
          check "JCFI rules" (rules_bytes jcfi c = rules_bytes jcfi w);
          (* VSA is not persisted: the warm analysis recomputes it from
             the rebuilt CFG, and every block's in-state must match *)
          List.iter2
            (fun (cf : Sa.fn_analysis) (wf : Sa.fn_analysis) ->
              let cv = Lazy.force cf.fa_vsa and wv = Lazy.force wf.fa_vsa in
              check "VSA bail" (Jt_analysis.Vsa.bailed cv = Jt_analysis.Vsa.bailed wv);
              List.iter
                (fun (b : Jt_cfg.Cfg.block) ->
                  check
                    (Printf.sprintf "VSA in-state of 0x%x" b.b_addr)
                    (Jt_analysis.Vsa.block_in cv b.b_addr
                    = Jt_analysis.Vsa.block_in wv b.b_addr))
                (Jt_cfg.Cfg.fn_blocks cf.fa_fn))
            c.sa_fns w.sa_fns)
        cold warm)

(* A sealed entry whose [ir_fns] do not name the rebuilt CFG's
   functions one for one: [of_ir] rejects it, and a warm [analyze] reads
   it from disk, warns, recomputes and returns the cold rules.  Each case
   analyzes a fresh copy of the module, so [compute]'s slot cannot serve
   the recompute from an earlier case's analysis. *)
let check_misaligned name mangle =
  with_dir name (fun dir ->
      let m = bzip2_module "libm.so" in
      let m = { m with name = m.name } in
      let jasan, _ = Jt_jasan.Jasan.create () in
      let jcfi, _ = Jt_jcfi.Jcfi.create () in
      let rules sa = (rules_bytes jasan sa, rules_bytes jcfi sa) in
      let cold = Sa.compute m in
      let bad = mangle cold (Sa.to_ir cold) in
      (match Sa.of_ir m bad with
      | _ -> Alcotest.failf "%s: of_ir accepted the entry" name
      | exception Failure _ -> ());
      let st = Store.create ~dir () in
      Jt_codec.Codec.write_file_atomic
        (store_entry_path dir (Jt_obj.Objfile.digest m))
        (Ir.encode bad);
      let before = Sa.analyses_performed () in
      let warm = Sa.analyze ~store:st m in
      Alcotest.(check int) (name ^ ": the entry decoded") 1
        (Store.stats st).Store.st_disk_hits;
      Alcotest.(check int) (name ^ ": recomputed") 1
        (Sa.analyses_performed () - before);
      Alcotest.(check bool) (name ^ ": cold rules") true (rules warm = rules cold))

let test_misaligned_fns () =
  check_misaligned "dropped" (fun _ ir ->
      match ir.Ir.ir_fns with
      | a :: _ :: rest -> { ir with Ir.ir_fns = a :: rest }
      | _ -> Alcotest.fail "need two functions");
  check_misaligned "moved" (fun cold ir ->
      (* the first function with a second block gets that block as its
         entry *)
      let fn, b =
        List.find_map
          (fun (fa : Sa.fn_analysis) ->
            match Jt_cfg.Cfg.fn_blocks fa.fa_fn with
            | _ :: (b : Jt_cfg.Cfg.block) :: _ -> Some (fa.fa_fn.f_entry, b.b_addr)
            | _ -> None)
          cold.Sa.sa_fns
        |> Option.get
      in
      { ir with
        Ir.ir_fns =
          List.map
            (fun (f : Ir.fn) -> if f.if_entry = fn then { f with if_entry = b } else f)
            ir.ir_fns })

(* Entries [of_ir] must reject while rebuilding: a span no section
   holds (past the section cursor's fallback), leaders out of order, and
   a liveness fact naming no instruction of its function. *)
let test_rejected_entries () =
  check_misaligned "span outside" (fun _ ir ->
      let spans = Array.copy ir.Ir.ir_insns in
      let last = Array.length spans - 1 in
      spans.(last) <- (0x7fff_0000, snd spans.(last));
      { ir with Ir.ir_insns = spans });
  check_misaligned "leaders" (fun _ ir ->
      match ir.Ir.ir_leaders with
      | a :: b :: rest -> { ir with Ir.ir_leaders = b :: a :: rest }
      | _ -> Alcotest.fail "need two leaders");
  check_misaligned "fact" (fun _ ir ->
      let moved = ref false in
      { ir with
        Ir.ir_fns =
          List.map
            (fun (f : Ir.fn) ->
              match f.if_live with
              | (_, r, fl) :: rest when not !moved ->
                moved := true;
                { f with if_live = (1, r, fl) :: rest }
              | _ -> f)
            ir.ir_fns })

(* CPA is a typed IR field: a warm analysis imports the persisted sites
   instead of re-running the pass, and JCFI's per-site policy follows. *)
let test_cpa_warm_start () =
  with_dir "cpa" (fun dir ->
      let modules = cpa_modules () in
      let tool, _ = Jt_jcfi.Jcfi.create () in
      let sites sa =
        Jt_analysis.Cpa.export (Lazy.force sa.Janitizer.Static_analyzer.sa_cpa)
      in
      let st = Store.create ~dir () in
      let cold = List.map (Janitizer.Static_analyzer.analyze ~store:st) modules in
      let before = Janitizer.Static_analyzer.analyses_performed () in
      let st2 = Store.create ~dir () in
      let warm = List.map (Janitizer.Static_analyzer.analyze ~store:st2) modules in
      Alcotest.(check int) "warm run served from disk" (List.length modules)
        (Store.stats st2).Store.st_disk_hits;
      List.iter2
        (fun c w ->
          let name = c.Janitizer.Static_analyzer.sa_mod.Jt_obj.Objfile.name in
          Alcotest.(check bool) (name ^ ": CPA sites survive") true
            (sites c = sites w);
          Alcotest.(check string) (name ^ ": identical JCFI rule bytes")
            (rules_bytes tool c) (rules_bytes tool w))
        cold warm;
      Alcotest.(check int) "warm run analyzed nothing" 0
        (Janitizer.Static_analyzer.analyses_performed () - before))

(* ---- single-flight under domain parallelism ---------------------- *)

let test_single_flight () =
  with_dir "flight" (fun dir ->
      let m = Progs.sum_prog ~n:25 () in
      let digest = Jt_obj.Objfile.digest m in
      let st = Store.create ~dir () in
      let computes = Atomic.make 0 in
      let compute () =
        Atomic.incr computes;
        (* hold the flight open long enough for every waiter to arrive *)
        Unix.sleepf 0.05;
        Janitizer.Static_analyzer.to_ir (Janitizer.Static_analyzer.compute m)
      in
      let irs =
        Jt_pool.Pool.run ~jobs:4
          (fun () -> Store.find_or_compute st ~digest ~name:m.name compute)
          [ (); (); (); () ]
      in
      Alcotest.(check int) "compute ran exactly once" 1 (Atomic.get computes);
      let first = List.hd irs in
      List.iter
        (fun ir ->
          Alcotest.(check bool) "all callers got the same IR" true (ir = first))
        irs;
      let s = Store.stats st in
      Alcotest.(check int) "one miss" 1 s.Store.st_misses;
      Alcotest.(check int) "waiters hit memory" 3 s.st_mem_hits)

(* ---- builds that differ only in metadata ------------------------ *)

(* The same code at two symtab levels: the digest must tell them apart,
   or one store hands the stripped build the full build's analysis. *)
let test_symtab_levels_keyed_apart () =
  with_dir "symtab" (fun dir ->
      let full = Progs.stripped_prog ~symtab_level:Jt_obj.Objfile.Full
      and stripped = Progs.stripped_prog ~symtab_level:Jt_obj.Objfile.Stripped in
      let rules sa =
        let tool, _ = Jt_jcfi.Jcfi.create () in
        Jt_rules.Rules.encode_file (tool.t_static sa)
      in
      let st = Store.create ~dir () in
      let through_store m = rules (Janitizer.Static_analyzer.analyze ~store:st m) in
      let fresh m = rules (Janitizer.Static_analyzer.compute m) in
      let r_full = through_store full and r_stripped = through_store stripped in
      Alcotest.(check int) "two store entries" 2 (List.length (Store.disk_entries st));
      Alcotest.(check bool) "full build gets its own rules" true (r_full = fresh full);
      Alcotest.(check bool) "stripped build gets its own rules" true
        (r_stripped = fresh stripped);
      Alcotest.(check bool) "the two builds' rules differ" false (r_full = r_stripped);
      (* warm, from a fresh handle: still apart *)
      let st2 = Store.create ~dir () in
      Alcotest.(check bool) "warm stripped build" true
        (rules (Janitizer.Static_analyzer.analyze ~store:st2 stripped) = r_stripped);
      Alcotest.(check int) "both served from disk" 0 (Store.stats st2).st_misses)

(* ---- LRU bounds, gc, clear -------------------------------------- *)

let distinct_modules n =
  List.init n (fun i -> Progs.sum_prog ~name:(Printf.sprintf "m%d" i) ~n:(10 + i) ())

let test_lru_eviction () =
  with_dir "lru" (fun dir ->
      let st = Store.create ~capacity:2 ~dir () in
      let load m =
        Store.find_or_compute st ~digest:(Jt_obj.Objfile.digest m) ~name:"m"
          (fun () ->
            Janitizer.Static_analyzer.to_ir (Janitizer.Static_analyzer.compute m))
      in
      let ms = distinct_modules 3 in
      List.iter (fun m -> ignore (load m)) ms;
      let s = Store.stats st in
      Alcotest.(check int) "third insert evicted the oldest" 1 s.Store.st_evictions;
      (* the evicted entry is still on disk: reloading is a disk hit *)
      ignore (load (List.hd ms));
      Alcotest.(check int) "evicted entry reloads from disk" 1
        (Store.stats st).st_disk_hits)

let test_gc_and_clear () =
  with_dir "gc" (fun dir ->
      let st = Store.create ~dir () in
      let load m =
        ignore
          (Store.find_or_compute st ~digest:(Jt_obj.Objfile.digest m) ~name:"m"
             (fun () ->
               Janitizer.Static_analyzer.to_ir
                 (Janitizer.Static_analyzer.compute m)))
      in
      List.iter load (distinct_modules 3);
      let entries = Store.disk_entries st in
      Alcotest.(check int) "three disk entries" 3 (List.length entries);
      let total = List.fold_left (fun a (_, b, _) -> a + b) 0 entries in
      (* keep roughly one entry's worth *)
      let removed, freed = Store.gc st ~max_bytes:(total / 3) in
      Alcotest.(check bool) "gc removed entries" true (removed >= 1 && removed <= 2);
      Alcotest.(check bool) "gc freed bytes" true (freed > 0);
      Alcotest.(check bool) "gc respects the budget" true
        (List.fold_left (fun a (_, b, _) -> a + b) 0 (Store.disk_entries st)
        <= total / 3);
      let left = List.length (Store.disk_entries st) in
      Alcotest.(check int) "clear removes the rest" left (Store.clear st);
      Alcotest.(check int) "store empty" 0 (List.length (Store.disk_entries st)))

(* ---- analyze_all: results in registry order (PR 7 satellite) ----- *)

let test_analyze_all_registry_order () =
  let m = Progs.sum_prog ~n:20 () in
  let registry = Progs.registry_for m in
  let tool, _ = Jt_jasan.Jasan.create () in
  let names fs = List.map fst fs in
  let expect = List.map (fun (m : Jt_obj.Objfile.t) -> m.name) registry in
  (* one result per registry entry, same order *)
  let files = Janitizer.Driver.analyze_all ~tool registry in
  Alcotest.(check (list string)) "registry order" expect (names files)

let () =
  Alcotest.run "ir"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_decode_rejects;
          Alcotest.test_case "real module round-trips" `Quick
            test_real_module_roundtrip;
          Alcotest.test_case "rejects malformed sealed input" `Quick
            test_decode_rejects_sealed;
          Alcotest.test_case "cpa sites round-trip" `Quick test_cpa_roundtrip;
          Alcotest.test_case "smallest functions round-trip" `Quick
            test_smallest_fns_roundtrip;
          Alcotest.test_case "bzip2 byte flips" `Quick test_byte_flips;
        ] );
      ( "jelf",
        [
          Alcotest.test_case "overlapping sections rejected" `Quick
            test_overlapping_sections;
          Alcotest.test_case "registry sections disjoint" `Quick
            test_registry_sections_disjoint;
        ] );
      ( "store-robustness",
        [
          Alcotest.test_case "truncated entry" `Quick test_store_truncated;
          Alcotest.test_case "garbage entry" `Quick test_store_garbage;
          Alcotest.test_case "wrong magic" `Quick test_store_wrong_magic;
          Alcotest.test_case "wrong schema version" `Quick
            test_store_wrong_version;
          Alcotest.test_case "stale digest" `Quick test_store_stale_digest;
          Alcotest.test_case "every byte flipped" `Quick
            test_store_every_byte_flipped;
          Alcotest.test_case "functions not matching the CFG" `Quick
            test_misaligned_fns;
          Alcotest.test_case "spans, leaders and facts the CFG rejects" `Quick
            test_rejected_entries;
        ] );
      ( "store",
        [
          Alcotest.test_case "warm load equivalence" `Quick
            test_warm_load_equivalence;
          Alcotest.test_case "single-flight" `Quick test_single_flight;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "symtab levels keyed apart" `Quick
            test_symtab_levels_keyed_apart;
          Alcotest.test_case "gc and clear" `Quick test_gc_and_clear;
          Alcotest.test_case "cpa warm start" `Quick test_cpa_warm_start;
        ] );
      ( "driver",
        [
          Alcotest.test_case "analyze_all registry order" `Quick
            test_analyze_all_registry_order;
        ] );
    ]
