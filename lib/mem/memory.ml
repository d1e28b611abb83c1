let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* A two-level page table over the 32-bit address space: [a lsr 22]
   picks one of 1024 directories, [(a lsr 12) land 1023] one of its 1024
   4 KiB pages.  Both levels are allocated on first write.  Until then
   they point at shared all-zero sentinels, so a read is two array loads
   with no test and no allocation; only the write path compares against
   the sentinels, and it never writes through them. *)
let dir_bits = 10
let dir_size = 1 lsl dir_bits
let dir_mask = dir_size - 1
let zero_page = Bytes.make page_size '\x00'
let zero_dir = Array.make dir_size zero_page

type t = { dirs : Bytes.t array array }

let create () = { dirs = Array.make dir_size zero_dir }

(* [a] is a masked address, so both indices are in range. *)
let read_page t a =
  Array.unsafe_get
    (Array.unsafe_get t.dirs (a lsr (page_bits + dir_bits)))
    ((a lsr page_bits) land dir_mask)

let write_page t a =
  let di = a lsr (page_bits + dir_bits) in
  let d = Array.unsafe_get t.dirs di in
  let d =
    if d != zero_dir then d
    else begin
      let d = Array.make dir_size zero_page in
      Array.unsafe_set t.dirs di d;
      d
    end
  in
  let pi = (a lsr page_bits) land dir_mask in
  let p = Array.unsafe_get d pi in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\x00' in
    Array.unsafe_set d pi p;
    p
  end

let read8 t a =
  let a = a land Jt_isa.Word.mask in
  Char.code (Bytes.unsafe_get (read_page t a) (a land page_mask))

let write8 t a v =
  let a = a land Jt_isa.Word.mask in
  Bytes.unsafe_set (write_page t a) (a land page_mask)
    (Char.unsafe_chr (v land 0xFF))

(* Word-wide accesses take one page lookup when they stay inside a page;
   one that crosses a page (the top page included, so the address wraps
   to page 0) goes byte by byte through the masked byte path. *)
let read16 t a =
  let a = a land Jt_isa.Word.mask in
  let off = a land page_mask in
  if off <= page_size - 2 then Bytes.get_uint16_le (read_page t a) off
  else read8 t a lor (read8 t (a + 1) lsl 8)

let read32 t a =
  let a = a land Jt_isa.Word.mask in
  let off = a land page_mask in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (read_page t a) off) land 0xFFFF_FFFF
  else
    read8 t a
    lor (read8 t (a + 1) lsl 8)
    lor (read8 t (a + 2) lsl 16)
    lor (read8 t (a + 3) lsl 24)

let write16 t a v =
  let a = a land Jt_isa.Word.mask in
  let off = a land page_mask in
  if off <= page_size - 2 then
    Bytes.set_uint16_le (write_page t a) off (v land 0xFFFF)
  else begin
    write8 t a v;
    write8 t (a + 1) (v lsr 8)
  end

let write32 t a v =
  let a = a land Jt_isa.Word.mask in
  let off = a land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (write_page t a) off (Int32.of_int v)
  else begin
    write8 t a v;
    write8 t (a + 1) (v lsr 8);
    write8 t (a + 2) (v lsr 16);
    write8 t (a + 3) (v lsr 24)
  end

let read t a ~width =
  match width with
  | 1 -> read8 t a
  | 2 -> read16 t a
  | 4 -> read32 t a
  | _ -> invalid_arg "Memory.read"

let write t a ~width v =
  match width with
  | 1 -> write8 t a v
  | 2 -> write16 t a v
  | 4 -> write32 t a v
  | _ -> invalid_arg "Memory.write"

(* String helpers wrap [a + i] through the word mask themselves:
   crossing the top of the address space must land on page 0, whatever
   the byte primitives do internally. *)
let write_string t a s =
  String.iteri
    (fun i c -> write8 t ((a + i) land Jt_isa.Word.mask) (Char.code c))
    s

let read_cstring t a =
  let b = Buffer.create 16 in
  let rec go i =
    if i >= 4096 then Buffer.contents b
    else
      let c = read8 t ((a + i) land Jt_isa.Word.mask) in
      if c = 0 then Buffer.contents b
      else begin
        Buffer.add_char b (Char.chr c);
        go (i + 1)
      end
  in
  go 0
