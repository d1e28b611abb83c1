exception Decode_error of { format : string; offset : int; reason : string }

let to_string = function
  | Decode_error { format; offset; reason } ->
    Printf.sprintf "%s decode error at byte %d: %s" format offset reason
  | e -> Printexc.to_string e

let () =
  Printexc.register_printer (function
    | Decode_error _ as e -> Some (to_string e)
    | _ -> None)

type width = U8 | U16 | U32

(* ---- writer ---- *)

module W = struct
  type t = Buffer.t

  (* Scalars keep the low bits, like a C store: [u32] and [i32] write the
     same two's-complement bytes, and only the reader tells them apart. *)
  let u8 b v = Buffer.add_uint8 b (v land 0xFF)
  let u16 b v = Buffer.add_uint16_le b (v land 0xFFFF)

  let u32 b v =
    u16 b v;
    u16 b (v lsr 16)

  let i32 = u32
  let bool b v = u8 b (if v then 1 else 0)

  (* A count that does not fit its width would wrap and decode as a
     different artifact, so it is refused at write time. *)
  let count w b n =
    match w with
    | U8 when n <= 0xFF -> u8 b n
    | U16 when n <= 0xFFFF -> u16 b n
    | U32 when n <= 0xFFFF_FFFF -> u32 b n
    | _ -> invalid_arg (Printf.sprintf "Codec: count %d overflows its width" n)

  let str w b s =
    count w b (String.length s);
    Buffer.add_string b s

  let list w f b l =
    count w b (List.length l);
    List.iter (f b) l

  let array w f b a =
    count w b (Array.length a);
    Array.iter (f b) a

  (* [v]'s index in [cases], a constant-constructor table. *)
  let enum cases b v =
    let rec go i = if cases.(i) = v then u8 b i else go (i + 1) in
    go 0

  let option f b = function
    | None -> bool b false
    | Some v ->
      bool b true;
      f b v
end

(* ---- reader ---- *)

module R = struct
  (* [lim] is where the payload ends: a sealed artifact's checksum lies
     past it, out of reach of every read. *)
  type t = { format : string; s : string; mutable lim : int; mutable pos : int }

  let fail_at r offset reason =
    raise (Decode_error { format = r.format; offset; reason })

  let fail r reason = fail_at r r.pos reason
  let need r n = if n > r.lim - r.pos then fail r "truncated"

  let u8 r =
    need r 1;
    let v = Char.code (String.unsafe_get r.s r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2;
    let v = String.get_uint16_le r.s r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    let lo = u16 r in
    lo lor (u16 r lsl 16)

  let i32 r =
    let v = u32 r in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

  (* Only 0 and 1: any other byte would decode to a value that encodes
     back differently. *)
  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | _ -> fail_at r (r.pos - 1) "bad bool"

  let count w r =
    match w with U8 -> u8 r | U16 -> u16 r | U32 -> u32 r

  let str w r =
    let at = r.pos in
    let n = count w r in
    if n > r.lim - r.pos then fail_at r at "truncated";
    let v = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    v

  (* Each element takes at least [min] bytes, so a count whose elements
     cannot fit in the bytes that remain is corrupt: it is rejected
     before anything is allocated for it. *)
  let checked_count w ~min r =
    let at = r.pos in
    let n = count w r in
    if n * min > r.lim - r.pos then fail_at r at "count exceeds buffer";
    n

  let list w ~min f r = List.init (checked_count w ~min r) (fun _ -> f r)

  (* An explicit loop, so elements are read in order whatever the
     evaluation order of an initializer. *)
  let array w ~min f r =
    match checked_count w ~min r with
    | 0 -> [||]
    | n ->
      let a = Array.make n (f r) in
      for i = 1 to n - 1 do
        a.(i) <- f r
      done;
      a

  let enum cases r =
    let i = u8 r in
    if i < Array.length cases then cases.(i) else fail_at r (r.pos - 1) "bad tag"

  let option f r = if bool r then Some (f r) else None
end

(* ---- containers ---- *)

let digest_len = 16

let reader ~magic s =
  let r = { R.format = magic; s; lim = String.length s; pos = 0 } in
  let m = String.length magic in
  if String.length s < m then R.fail r "truncated";
  if not (String.equal (String.sub s 0 m) magic) then R.fail r "bad magic";
  r.pos <- m;
  r

let finish r v =
  if r.R.pos <> r.lim then R.fail r "trailing bytes";
  v

let encode ~magic f =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  f b;
  Buffer.contents b

let decode ~magic f s =
  let r = reader ~magic s in
  finish r (f r)

let seal ~magic ~version f =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  W.u16 b version;
  let len_at = Buffer.length b in
  W.u32 b 0;
  f b;
  let body = Buffer.to_bytes b in
  Bytes.set_int32_le body len_at
    (Int32.of_int (Bytes.length body - len_at - 4));
  let body = Bytes.unsafe_to_string body in
  body ^ Digest.string body

let unseal ~magic ~version f s =
  let r = reader ~magic s in
  let v = R.u16 r in
  if v <> version then
    R.fail_at r (r.pos - 2) (Printf.sprintf "version %d, expected %d" v version);
  let len = R.u32 r in
  let body = r.pos + len in
  let n = String.length s in
  if body + digest_len > n then R.fail r "truncated";
  if body + digest_len < n then R.fail_at r (body + digest_len) "trailing bytes";
  if
    not
      (String.equal (Digest.substring s 0 body) (String.sub s body digest_len))
  then R.fail_at r body "checksum mismatch";
  r.lim <- body;
  finish r (f r)

(* ---- files ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with
    | Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file_atomic path data =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path ^ ".") ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data);
      Sys.rename tmp path)
