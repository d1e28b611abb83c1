(* Four levels of 256 slots: [a lsr 24] picks the top slot, then
   [(a lsr 16) land 255], [(a lsr 8) land 255], and [a land 255] the
   entry in a 256-address leaf.  Untouched slots point at the kind's
   shared empty levels, so a lookup never tests a level; only [set]
   compares against them, and nothing ever writes through them. *)
let size = 256
let mask = size - 1
let word = 1 lsl 32

type 'a kind = {
  none : 'a;
  span : 'a -> int;
  leaf0 : 'a array;
  l3_0 : 'a array array;
  l2_0 : 'a array array array;
}

let kind ~none ~span =
  let leaf0 = Array.make size none in
  let l3_0 = Array.make size leaf0 in
  { none; span; leaf0; l3_0; l2_0 = Array.make size l3_0 }

type 'a t = {
  k : 'a kind;
  top : 'a array array array array;
  mutable max_span : int;  (* the largest span ever set, at least 1 *)
}

let create k = { k; top = Array.make size k.l2_0; max_span = 1 }

let[@inline] find t a =
  if a lsr 32 <> 0 then t.k.none
  else
    Array.unsafe_get
      (Array.unsafe_get
         (Array.unsafe_get
            (Array.unsafe_get t.top (a lsr 24))
            ((a lsr 16) land mask))
         ((a lsr 8) land mask))
      (a land mask)

let span_of k e = max 1 (k.span e)

(* Slot [i] of [parent], first replaced by a fresh level full of [fill]
   while it is still the shared [empty] one. *)
let[@inline] level parent i empty fill =
  let l = Array.unsafe_get parent i in
  if l != empty then l
  else begin
    let l = Array.make size fill in
    Array.unsafe_set parent i l;
    l
  end

let set t a e =
  if a lsr 32 = 0 then begin
    let k = t.k in
    let l2 = level t.top (a lsr 24) k.l2_0 k.l3_0 in
    let l3 = level l2 ((a lsr 16) land mask) k.l3_0 k.leaf0 in
    let leaf = level l3 ((a lsr 8) land mask) k.leaf0 k.none in
    Array.unsafe_set leaf (a land mask) e;
    t.max_span <- max t.max_span (span_of k e)
  end

(* Call [visit key entry leaf slot] on every entry with a key in
   [\[lo, hi)], [0 <= lo <= hi <= 2^32], skipping unallocated levels. *)
let sweep t lo hi visit =
  let k = t.k in
  if lo < hi then
    for i = lo lsr 24 to (hi - 1) lsr 24 do
      let l2 = Array.unsafe_get t.top i in
      if l2 != k.l2_0 then begin
        let bi = i lsl 24 in
        for j = max 0 ((lo - bi) asr 16) to min mask ((hi - 1 - bi) asr 16) do
          let l3 = Array.unsafe_get l2 j in
          if l3 != k.l3_0 then begin
            let bj = bi lor (j lsl 16) in
            for m = max 0 ((lo - bj) asr 8) to min mask ((hi - 1 - bj) asr 8) do
              let leaf = Array.unsafe_get l3 m in
              if leaf != k.leaf0 then begin
                let bm = bj lor (m lsl 8) in
                for s = max 0 (lo - bm) to min mask (hi - 1 - bm) do
                  let e = Array.unsafe_get leaf s in
                  if e != k.none then visit (bm + s) e leaf s
                done
              end
            done
          end
        done
      end
    done

(* Two ranges on the circle of 2^32 addresses, [start, start + len) and
   [key, key + span), both non-empty, overlap exactly when one starts
   inside the other. *)
let flush t start len f =
  let len = min len word in
  if len > 0 then begin
    let k = t.k in
    let start = start land (word - 1) in
    let back = t.max_span - 1 in
    let doomed key e leaf s =
      if (key - start) land (word - 1) < len
         || (start - key) land (word - 1) < span_of k e
      then begin
        Array.unsafe_set leaf s k.none;
        f key e
      end
    in
    (* every key in the range or up to [back] bytes before it *)
    let lo = (start - back) land (word - 1) in
    let hi = lo + min word (len + back) in
    if hi <= word then sweep t lo hi doomed
    else begin
      sweep t lo word doomed;
      sweep t 0 (hi - word) doomed
    end
  end

let fold f t acc =
  let acc = ref acc in
  sweep t 0 word (fun key e _ _ -> acc := f key e !acc);
  !acc
