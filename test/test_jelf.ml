(* The JELF on-disk container: roundtrips, file I/O, corruption. *)

let test_roundtrip_all_workloads () =
  List.iter
    (fun s ->
      let w = Jt_workloads.Specgen.build s in
      List.iter
        (fun m ->
          let m' = Jt_obj.Jelf.read (Jt_obj.Jelf.write m) in
          if m <> m' then
            Alcotest.failf "roundtrip mismatch for %s" m.Jt_obj.Objfile.name)
        w.w_registry)
    (List.filteri (fun i _ -> i mod 5 = 0) Jt_workloads.Sheet.all)

let test_runs_identically_from_disk () =
  let dir = Filename.temp_file "jelf" "" in
  Sys.remove dir;
  let w = Jt_workloads.Specgen.build (Jt_workloads.Sheet.find "mcf") in
  let paths = List.map (Jt_obj.Jelf.save ~dir) w.w_registry in
  let registry = List.map Jt_obj.Jelf.load paths in
  let from_disk = Jt_vm.Vm.run_native ~registry ~main:"mcf" () in
  let in_memory = Jt_workloads.Specgen.run_native w in
  Alcotest.(check string) "same output" in_memory.r_output from_disk.r_output;
  Alcotest.(check int) "same cycles" in_memory.r_cycles from_disk.r_cycles;
  List.iter Sys.remove paths;
  Sys.rmdir dir

let format = "JELF1"

let test_corruption_rejected () =
  let m = Jt_workloads.Stdlibs.libc in
  let good = Jt_obj.Jelf.write m in
  Progs.expect_decode_error ~format ~reason:"bad magic" "magic" (fun () ->
      Jt_obj.Jelf.read ("XELF1" ^ String.sub good 5 (String.length good - 5)));
  Progs.expect_decode_error ~format ~reason:"truncated" "truncated" (fun () ->
      Jt_obj.Jelf.read (String.sub good 0 (String.length good - 3)))

(* Regression: [read] used to accept any bytes appended after a valid
   module, so a doubly-written or padded file passed undetected. *)
let test_trailing_bytes_rejected () =
  let good = Jt_obj.Jelf.write Jt_workloads.Stdlibs.libc in
  Progs.expect_decode_error ~format ~reason:"trailing bytes" "trailing"
    (fun () -> Jt_obj.Jelf.read (good ^ "\x00"));
  Progs.expect_decode_error ~format ~reason:"trailing bytes" "trailing run"
    (fun () -> Jt_obj.Jelf.read (good ^ good))

(* Regression: list counts were only compared against a magic 1M
   ceiling, so a 40-byte file could claim 999,999 symbols and walk the
   decoder through them.  Counts must fit in the remaining bytes. *)
let test_absurd_count_rejected () =
  let good = Jt_obj.Jelf.write Jt_workloads.Stdlibs.libc in
  (* The features list count sits right after the name, kind and symtab
     bytes; overwrite it with a count far larger than the file. *)
  let name_len = 4 + String.length Jt_workloads.Stdlibs.libc.Jt_obj.Objfile.name in
  let count_pos = 5 + name_len + 2 in
  let forged = Bytes.of_string good in
  Bytes.set_int32_le forged count_pos 999_999l;
  Progs.expect_decode_error ~format ~reason:"count exceeds buffer"
    "oversized count" (fun () -> Jt_obj.Jelf.read (Bytes.to_string forged))

(* JELF is unsealed: a flipped byte may well be another valid module.
   But every flip either raises [Decode_error] or decodes to a module
   that writes back to exactly the flipped bytes (only canonical
   encodings are accepted: a flag byte of 2 is not [true]), and every
   truncation is rejected. *)
let test_byte_flips () =
  let m = Lazy.force Progs.bzip2_main in
  Progs.sweep ~format Jt_obj.Jelf.read (Jt_obj.Jelf.write m)
    ~check:(fun what s m' ->
      if not (String.equal (Jt_obj.Jelf.write m') s) then
        Alcotest.failf "%s: accepted a non-canonical encoding" what)

(* Satellite: [save] must create nested directories and publish
   atomically — a pre-existing partial file at the final path is
   replaced wholesale and no temp files survive a successful save. *)
let test_save_nested_and_atomic () =
  let root = Filename.temp_file "jelf" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "deep") "nested" in
  let m = Jt_workloads.Stdlibs.libc in
  let final = Filename.concat dir (m.Jt_obj.Objfile.name ^ ".jelf") in
  (* Simulate the debris of an interrupted non-atomic save: a truncated
     file already sitting at the final path. *)
  Jt_codec.Codec.mkdir_p dir;
  let oc = open_out_bin final in
  output_string oc (String.sub (Jt_obj.Jelf.write m) 0 10);
  close_out oc;
  let path = Jt_obj.Jelf.save ~dir m in
  Alcotest.(check string) "path" final path;
  let m' = Jt_obj.Jelf.load path in
  if m <> m' then Alcotest.fail "saved module does not round-trip";
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        Alcotest.failf "temp file left behind: %s" f)
    (Sys.readdir dir);
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat root "deep");
  Sys.rmdir root

(* The digest is computed once per module object: the kept digest
   equals a fresh computation (a copy is a new object), and a copy with
   one field changed digests differently instead of answering from the
   original's entry. *)
let test_digest_once () =
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      let d = Jt_obj.Objfile.digest m in
      let label what = m.name ^ ": " ^ what in
      Alcotest.(check bool) (label "kept") true (Jt_obj.Objfile.digest m == d);
      Alcotest.(check string) (label "kept = fresh")
        (Jt_obj.Objfile.digest { m with name = m.name }) d;
      List.iter
        (fun (what, m') ->
          if String.equal (Jt_obj.Objfile.digest m') d then
            Alcotest.failf "%s: a copy with another %s digests the same" m.name what)
        [
          ("name", { m with name = m.name ^ "'" });
          ("dependency list", { m with deps = "x.so" :: m.deps });
          ("entry", { m with entry = Some (Option.value ~default:0 m.entry + 1) });
          ("section list", { m with sections = List.tl m.sections });
        ])
    (Corpus.registry_modules () @ Corpus.fuzz_modules ())

let () =
  Alcotest.run "jelf"
    [
      ( "container",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_all_workloads;
          Alcotest.test_case "runs from disk" `Quick test_runs_identically_from_disk;
          Alcotest.test_case "corruption" `Quick test_corruption_rejected;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "absurd count" `Quick test_absurd_count_rejected;
          Alcotest.test_case "atomic nested save" `Quick test_save_nested_and_atomic;
          Alcotest.test_case "bzip2 byte flips" `Quick test_byte_flips;
          Alcotest.test_case "digest once" `Quick test_digest_once;
        ] );
    ]
