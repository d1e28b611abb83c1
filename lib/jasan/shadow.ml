type state = Addressable | Heap_redzone | Heap_freed | Stack_canary

let to_byte = function
  | Addressable -> 0
  | Heap_redzone -> 1
  | Heap_freed -> 2
  | Stack_canary -> 3

let of_byte = function
  | 1 -> Heap_redzone
  | 2 -> Heap_freed
  | 3 -> Stack_canary
  | _ -> Addressable

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* [live] counts the poisoned (non-zero) bytes on the page, so bulk
   operations can skip clean pages without scanning them and [unpoison]
   over a wholly clean page is free. *)
type page = { bytes : Bytes.t; mutable live : int }

(* A two-level page table like guest memory's: [a lsr 22] picks one of
   1024 directories, [(a lsr 12) land 1023] one of its 1024 pages.  Both
   levels start at shared clean sentinels and are allocated on the first
   poison of a byte they cover, so a check reads two array slots and
   never hashes. *)
let dir_bits = 10
let dir_size = 1 lsl dir_bits
let dir_mask = dir_size - 1

type t = { dirs : page array array; mutable poisoned : int }

(* Stands for an unallocated page on lookups: all zero and clean, so
   reads and scans need no special case.  Never written. *)
let no_page = { bytes = Bytes.make page_size '\x00'; live = 0 }
let no_dir = Array.make dir_size no_page

let create () = { dirs = Array.make dir_size no_dir; poisoned = 0 }

(* [a] is a masked address, so both indices are in range. *)
let find_page t a =
  Array.unsafe_get
    (Array.unsafe_get t.dirs (a lsr (page_bits + dir_bits)))
    ((a lsr page_bits) land dir_mask)

(* The page of masked address [a], allocating it (and its directory) if
   it is still a sentinel. *)
let alloc_page t a =
  let di = a lsr (page_bits + dir_bits) in
  let d = Array.unsafe_get t.dirs di in
  let d =
    if d != no_dir then d
    else begin
      let d = Array.make dir_size no_page in
      Array.unsafe_set t.dirs di d;
      d
    end
  in
  let pi = (a lsr page_bits) land dir_mask in
  let p = Array.unsafe_get d pi in
  if p != no_page then p
  else begin
    let p = { bytes = Bytes.make page_size '\x00'; live = 0 } in
    Array.unsafe_set d pi p;
    p
  end

let count_nonzero b off len =
  let n = ref 0 in
  for i = off to off + len - 1 do
    if Bytes.unsafe_get b i <> '\x00' then incr n
  done;
  !n

(* Fill the shadow of [a, a+len) with byte [v], page-at-a-time.  Per-page
   live counts let the common cases avoid touching memory at all
   (clearing a page that was never allocated or is already clean) or
   avoid the scan for overwritten bytes (page entirely clean / entirely
   poisoned).  Addresses wrap modulo the word size like every other
   per-byte path. *)
let fill_range t a len v =
  let c = Char.chr v in
  let a = ref (a land Jt_isa.Word.mask) in
  let remaining = ref len in
  while !remaining > 0 do
    let off = !a land page_mask in
    let chunk = min !remaining (page_size - off) in
    let p = find_page t !a in
    (match (p == no_page, v) with
    | true, 0 -> () (* clearing untouched memory: nothing to do *)
    | true, _ ->
      let p = alloc_page t !a in
      p.live <- chunk;
      Bytes.fill p.bytes off chunk c;
      t.poisoned <- t.poisoned + chunk
    | false, 0 ->
      if p.live > 0 then begin
        let dropped =
          if chunk = page_size || p.live = page_size then
            min p.live chunk
          else count_nonzero p.bytes off chunk
        in
        Bytes.fill p.bytes off chunk '\x00';
        p.live <- p.live - dropped;
        t.poisoned <- t.poisoned - dropped
      end
    | false, _ ->
      let overwritten =
        if p.live = 0 then 0
        else if p.live = page_size then chunk
        else count_nonzero p.bytes off chunk
      in
      Bytes.fill p.bytes off chunk c;
      p.live <- p.live + chunk - overwritten;
      t.poisoned <- t.poisoned + chunk - overwritten);
    a := (!a + chunk) land Jt_isa.Word.mask;
    remaining := !remaining - chunk
  done

let set t a v = fill_range t a 1 v

let get t a =
  let a = a land Jt_isa.Word.mask in
  Char.code (Bytes.get (find_page t a).bytes (a land page_mask))

let poison t a ~len st =
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.emit
      (Jt_trace.Trace.Shadow_poison
         { addr = a land Jt_isa.Word.mask; len; state = to_byte st });
  fill_range t a len (to_byte st)

let unpoison t a ~len =
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.emit
      (Jt_trace.Trace.Shadow_unpoison { addr = a land Jt_isa.Word.mask; len });
  fill_range t a len 0

(* Scan page-at-a-time: a page that was never allocated, or whose live
   count is zero, cannot hold the first poisoned byte and is skipped
   wholesale.  Plain loops over the chunks and their bytes, so a clean
   access allocates nothing. *)
let first_poisoned t a ~len =
  let addr = ref (a land Jt_isa.Word.mask) in
  let remaining = ref len in
  let hit = ref (-1) and hit_state = ref 0 in
  while !hit < 0 && !remaining > 0 do
    let off = !addr land page_mask in
    let chunk = min !remaining (page_size - off) in
    let p = find_page t !addr in
    if p.live > 0 then begin
      let i = ref off in
      while !i < off + chunk && Bytes.unsafe_get p.bytes !i = '\x00' do
        incr i
      done;
      if !i < off + chunk then begin
        hit := !addr + (!i - off);
        hit_state := Char.code (Bytes.unsafe_get p.bytes !i)
      end
    end;
    addr := (!addr + chunk) land Jt_isa.Word.mask;
    remaining := !remaining - chunk
  done;
  if !hit < 0 then None else Some (!hit, of_byte !hit_state)

let poisoned_count t = t.poisoned
