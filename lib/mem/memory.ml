let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
(* Page tail: [owner_tail] bytes for the owner, then the code marks: one
   bit per [chunk_size]-byte chunk of the page ([chunk_bytes] bytes),
   then one pad byte so a 16-bit read of the marks never leaves the
   page. *)
let owner_tail = 2
let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits
let marks_at = page_size + owner_tail
let chunk_bytes = page_size / chunk_size / 8
let page_tail = owner_tail + chunk_bytes + 1

(* A three-level page table over the 32-bit address space: [a lsr 24]
   picks one of 256 top-level slots, [(a lsr 18) land 63] one of 64 in
   the middle level, [(a lsr 12) land 63] one of 64 4 KiB pages in the
   leaf.  Every interior level is at most 256 words, so it is born on the
   minor heap: a short-lived memory (one small program's VM, its JASan
   shadow) costs the major heap only the pages it writes.  Interior
   levels and pages are allocated on first write.  Until then they point
   at shared all-zero sentinels, so a read is three array loads with no
   test and no allocation; only the write path compares against the
   sentinels, and it never writes through them.

   Each page carries [owner_tail] bytes past its [page_size] data bytes
   that the memory never reads or writes: the JASan shadow, built on
   this same table, keeps its per-page count of poisoned bytes there.
   Then come the page's code marks, a 64-bit map of its 64-byte chunks
   that [mark_code] sets, and that every [store*] tests on the page it
   has already looked up.  A page is 4,107 bytes, 514 words, where a
   bare 4,096-byte one takes 513. *)
let top_bits = 8
let mid_bits = 6
let leaf_bits = 6
let top_size = 1 lsl top_bits
let mid_size = 1 lsl mid_bits
let leaf_size = 1 lsl leaf_bits
let mid_mask = mid_size - 1
let leaf_mask = leaf_size - 1
let mid_shift = page_bits + leaf_bits
let top_shift = mid_shift + mid_bits
let new_page () = Bytes.make (page_size + page_tail) '\x00'
let zero_page = new_page ()
let zero_leaf = Array.make leaf_size zero_page
let zero_mid = Array.make mid_size zero_leaf

type t = Bytes.t array array array

let create () : t = Array.make top_size zero_mid

(* [a] is a masked address, so every index is in range. *)
let read_page (t : t) a =
  Array.unsafe_get
    (Array.unsafe_get
       (Array.unsafe_get t (a lsr top_shift))
       ((a lsr mid_shift) land mid_mask))
    ((a lsr page_bits) land leaf_mask)

let write_page (t : t) a =
  let ti = a lsr top_shift in
  let m = Array.unsafe_get t ti in
  let m =
    if m != zero_mid then m
    else begin
      let m = Array.make mid_size zero_leaf in
      Array.unsafe_set t ti m;
      m
    end
  in
  let mi = (a lsr mid_shift) land mid_mask in
  let l = Array.unsafe_get m mi in
  let l =
    if l != zero_leaf then l
    else begin
      let l = Array.make leaf_size zero_page in
      Array.unsafe_set m mi l;
      l
    end
  in
  let li = (a lsr page_bits) land leaf_mask in
  let p = Array.unsafe_get l li in
  if p != zero_page then p
  else begin
    let p = new_page () in
    Array.unsafe_set l li p;
    p
  end

let page t a = read_page t (a land Jt_isa.Word.mask)
let page_for_write t a = write_page t (a land Jt_isa.Word.mask)

let read8 t a =
  let a = a land Jt_isa.Word.mask in
  Char.code (Bytes.unsafe_get (read_page t a) (a land page_mask))

(* Whether the chunks of [\[off, off + w)], [w <= chunk_size], hold a
   code mark: one 16-bit load covers both chunks a write can span. *)
let[@inline] marked p off w =
  let c0 = off lsr chunk_bits in
  let span = ((off + w - 1) lsr chunk_bits) - c0 in
  Bytes.get_uint16_le p (marks_at + (c0 lsr 3))
  land (((2 lsl span) - 1) lsl (c0 land 7))
  <> 0

let store8 t a v =
  let a = a land Jt_isa.Word.mask in
  let p = write_page t a and off = a land page_mask in
  Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xFF));
  marked p off 1

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

let store16 t a v =
  let a = a land Jt_isa.Word.mask in
  let off = a land page_mask in
  if off <= page_size - 2 then begin
    let p = write_page t a in
    Bytes.set_uint16_le p off (v land 0xFFFF);
    marked p off 2
  end
  else
    let h0 = store8 t a v in
    store8 t (a + 1) (v lsr 8) || h0

let store32 t a v =
  let a = a land Jt_isa.Word.mask in
  let off = a land page_mask in
  if off <= page_size - 4 then begin
    let p = write_page t a in
    Bytes.set_int32_le p off (Int32.of_int v);
    marked p off 4
  end
  else
    let h0 = store8 t a v in
    let h1 = store8 t (a + 1) (v lsr 8) in
    let h2 = store8 t (a + 2) (v lsr 16) in
    store8 t (a + 3) (v lsr 24) || h0 || h1 || h2

let write8 t a v = ignore (store8 t a v : bool)
let write16 t a v = ignore (store16 t a v : bool)
let write32 t a v = ignore (store32 t a v : bool)

(* Set the mark of every chunk [\[a, a + len)] touches, page by page,
   wrapping at the top of the address space. *)
let rec mark_code t a len =
  if len > 0 then begin
    let a = a land Jt_isa.Word.mask in
    let off = a land page_mask in
    let k = min len (page_size - off) in
    let p = write_page t a in
    for c = off lsr chunk_bits to (off + k - 1) lsr chunk_bits do
      let i = marks_at + (c lsr 3) in
      Bytes.unsafe_set p i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get p i) lor (1 lsl (c land 7))))
    done;
    mark_code t (a + k) (len - k)
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

(* String helpers wrap through the word mask themselves: crossing the
   top of the address space must land on page 0, whatever the byte
   primitives do internally.  [write_string] blits one page-sized chunk
   at a time, so loading a section takes one page lookup per page. *)
let write_string t a s =
  let len = String.length s in
  let rec go a i =
    if i < len then begin
      let off = a land page_mask in
      let n = min (len - i) (page_size - off) in
      Bytes.blit_string s i (write_page t a) off n;
      go ((a + n) land Jt_isa.Word.mask) (i + n)
    end
  in
  go (a land Jt_isa.Word.mask) 0

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
