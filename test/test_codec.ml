(* The shared codec (Jt_codec.Codec): the sealed frame and primitives
   round-trip, the reader's own rejections, the one printer, and the
   atomic file publish.  Each artifact's byte-flip sweep lives with its
   format's suite. *)

module Codec = Jt_codec.Codec

type item = { n : int; s : string; flag : bool; signed : int }

let gen_frame =
  let open QCheck2.Gen in
  let* magic = string_size ~gen:(char_range 'A' 'Z') (int_range 1 6) in
  let* version = int_bound 0xFFFF in
  let* items =
    list_size (int_bound 30)
      (let* n = int_bound 0xFFFF_FFFF in
       let* s = string_size (int_bound 40) in
       let* flag = bool in
       let* signed = int_range (-0x8000_0000) 0x7FFF_FFFF in
       return { n; s; flag; signed })
  in
  return (magic, version, items)

let write_items =
  Codec.W.list U32 (fun b it ->
      Codec.W.u32 b it.n;
      Codec.W.str U16 b it.s;
      Codec.W.bool b it.flag;
      Codec.W.i32 b it.signed)

let read_items =
  Codec.R.list U32 ~min:10 (fun r ->
      let n = Codec.R.u32 r in
      let s = Codec.R.str U16 r in
      let flag = Codec.R.bool r in
      { n; s; flag; signed = Codec.R.i32 r })

let prop_frame_roundtrip =
  QCheck2.Test.make ~name:"unseal (seal payload) = payload" ~count:300 gen_frame
    (fun (magic, version, items) ->
      let payload = Codec.encode ~magic:"" (fun b -> write_items b items) in
      let enc = Codec.seal ~magic ~version (fun b -> write_items b items) in
      (* magic, u16 version, u32 length, payload, 16-byte MD5 *)
      String.length enc = String.length magic + 22 + String.length payload
      && Codec.unseal ~magic ~version read_items enc = items)

let format = "TEST"

let decode_error ~reason label payload f =
  Progs.expect_decode_error ~format ~reason label (fun () ->
      Codec.decode ~magic:format f (format ^ payload))

let test_reader_rejections () =
  decode_error ~reason:"bad bool" "bool 2" "\x02" Codec.R.bool;
  decode_error ~reason:"count exceeds buffer" "count"
    "\x03\x00\x00\x00\x01\x02\x03"
    (Codec.R.list U32 ~min:4 Codec.R.u32);
  decode_error ~reason:"truncated" "string" "\x05ab" (Codec.R.str U8);
  decode_error ~reason:"trailing bytes" "trailing" "\x01\x00" Codec.R.bool;
  Progs.expect_decode_error ~format ~reason:"version 2, expected 1" "version"
    (fun () ->
      Codec.unseal ~magic:format ~version:1 Codec.R.bool
        (Codec.seal ~magic:format ~version:2 (fun b -> Codec.W.bool b true)))

let test_printer () =
  match Codec.decode ~magic:format Codec.R.u32 "TEST\x01" with
  | _ -> Alcotest.fail "short u32 accepted"
  | exception e ->
    Alcotest.(check string) "format, offset and reason"
      "TEST decode error at byte 4: truncated" (Codec.to_string e);
    Alcotest.(check string) "registered with Printexc" (Codec.to_string e)
      (Printexc.to_string e)

let test_writer_overflow () =
  match Codec.encode ~magic:"" (fun b -> Codec.W.str U8 b (String.make 256 'x')) with
  | _ -> Alcotest.fail "256-byte string under a u8 length accepted"
  | exception Invalid_argument _ -> ()

(* The publish creates missing parents, leaves only the final file, and
   removes its temp file when the rename fails (here: the target is a
   directory). *)
let test_write_file_atomic () =
  let root = Filename.temp_file "jt_codec_test" "" in
  Sys.remove root;
  let dir = Filename.concat root "nested" in
  let path = Filename.concat dir "f.bin" in
  Codec.write_file_atomic path "payload";
  Alcotest.(check string) "read back" "payload" (Codec.read_file path);
  Sys.remove path;
  Sys.mkdir path 0o755;
  (match Codec.write_file_atomic path "payload" with
  | () -> Alcotest.fail "rename over a directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "temp file removed" [ "f.bin" ]
    (Array.to_list (Sys.readdir dir));
  Sys.rmdir path;
  Sys.rmdir dir;
  Sys.rmdir root

let () =
  Alcotest.run "codec"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          Alcotest.test_case "reader rejections" `Quick test_reader_rejections;
          Alcotest.test_case "printer" `Quick test_printer;
          Alcotest.test_case "writer overflow" `Quick test_writer_overflow;
        ] );
      ("files", [ Alcotest.test_case "atomic publish" `Quick test_write_file_atomic ]);
    ]
