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

module Memory = Jt_mem.Memory

let page_size = Memory.page_size
let page_mask = page_size - 1

(* The shadow is a byte memory of states with guest memory's page-table
   geometry: a check reads three array slots and never hashes, and pages
   are allocated on the first poison of a byte they cover.  Each page's
   two tail bytes count its poisoned (non-zero) bytes, so bulk operations
   can skip clean pages without scanning them and [unpoison] over a
   wholly clean page is free. *)
type t = { mem : Memory.t; mutable poisoned : int }

let create () = { mem = Memory.create (); poisoned = 0 }
let live p = Bytes.get_uint16_le p page_size
let set_live p n = Bytes.set_uint16_le p page_size n

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
    (if v = 0 then begin
       (* clearing a clean page, allocated or not, writes nothing *)
       let p = Memory.page t.mem !a in
       let n = live p in
       if n > 0 then begin
         let dropped =
           if chunk = page_size || n = page_size then min n chunk
           else count_nonzero p off chunk
         in
         Bytes.fill p off chunk '\x00';
         set_live p (n - dropped);
         t.poisoned <- t.poisoned - dropped
       end
     end
     else begin
       let p = Memory.page_for_write t.mem !a in
       let n = live p in
       let overwritten =
         if n = 0 then 0 else if n = page_size then chunk
         else count_nonzero p off chunk
       in
       Bytes.fill p off chunk c;
       set_live p (n + chunk - overwritten);
       t.poisoned <- t.poisoned + chunk - overwritten
     end);
    a := (!a + chunk) land Jt_isa.Word.mask;
    remaining := !remaining - chunk
  done

let set t a v = fill_range t a 1 v

let get t a = Memory.read8 t.mem a

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
    let p = Memory.page t.mem !addr in
    if live p > 0 then begin
      let i = ref off in
      while !i < off + chunk && Bytes.unsafe_get p !i = '\x00' do
        incr i
      done;
      if !i < off + chunk then begin
        hit := !addr + (!i - off);
        hit_state := Char.code (Bytes.unsafe_get p !i)
      end
    end;
    addr := (!addr + chunk) land Jt_isa.Word.mask;
    remaining := !remaining - chunk
  done;
  if !hit < 0 then None else Some (!hit, of_byte !hit_state)

let poisoned_count t = t.poisoned
