module Codec = Jt_codec.Codec

type t = { rule_id : int; bb : int; insn : int; data : int array }

let no_op = 0

let make ~id ~bb ~insn ?(data = []) () =
  if List.length data > 4 then invalid_arg "Rules.make: at most 4 data words";
  { rule_id = id; bb; insn; data = Array.of_list data }

type file = {
  rf_module : string;
  rf_digest : string;
  rf_stats : (string * int) list;
  rf_rules : t list;
}

(* "JTR3": the module digest and a small key/value stats section
   (per-module static-pass accounting such as elision counts) head the
   rules, so the "what did the analyzer decide and why" record travels
   with the rules under the same digest scheme.  Sealed in the shared
   frame; files from before the frame, and the older "JTR2"/"JTRR"
   layouts, fail it and degrade to re-analysis. *)
let magic = "JTR3"

let version = 1

let encode_file f =
  Codec.seal ~magic ~version (fun b ->
      let open Codec.W in
      str U8 b f.rf_digest;
      str U16 b f.rf_module;
      list U8
        (fun b (k, v) ->
          str U8 b k;
          u32 b v)
        b f.rf_stats;
      list U32
        (fun b r ->
          u16 b r.rule_id;
          u32 b r.bb;
          u32 b r.insn;
          array U8 u32 b r.data)
        b f.rf_rules)

(* A stat takes at least 5 bytes (u8 key length + u32 value), a rule 11
   (u16 id + u32 bb + u32 insn + u8 data count). *)
let decode_file =
  Codec.unseal ~magic ~version (fun r ->
      let open Codec.R in
      let rf_digest = str U8 r in
      let rf_module = str U16 r in
      let rf_stats =
        list U8 ~min:5
          (fun r ->
            let k = str U8 r in
            (k, u32 r))
          r
      in
      let rf_rules =
        list U32 ~min:11
          (fun r ->
            let rule_id = u16 r in
            let bb = u32 r in
            let insn = u32 r in
            let data = array U8 ~min:4 u32 r in
            if Array.length data > 4 then fail r "too many data words";
            { rule_id; bb; insn; data })
          r
      in
      { rf_module; rf_digest; rf_stats; rf_rules })

(* The load-time index of one rule file: an open-addressing table over
   every address a rule names, keyed by link address.  Slot [i] is two
   ints of [ix_slots]: the address ([empty] when free), then the
   anchor's rules as [start lsl 21 lor count lsl 1 lor bb] — a run of
   [ix_rules], which holds the file's own non-no-op records grouped by
   anchor, in file order within one — and whether a rule marks the
   address as a block.  Flat arrays of ints and one array of the file's
   records: a run that indexes a new file promotes little for the
   collector to trace, and a lookup conses only the list it returns. *)
type index = {
  ix_slots : int array;
  ix_mask : int;  (* slots - 1 *)
  ix_rules : t array;
  ix_size : int;
}

let empty = min_int
let hash a = (a * 0x9E37_79B1) lsr 16
let run_start v = v lsr 21
let run_length v = (v lsr 1) land 0xF_FFFF

let rec probe slots mask a i =
  let k = Array.unsafe_get slots (2 * i) in
  if k = empty then -1 else if k = a then i else probe slots mask a ((i + 1) land mask)

let find ix a = probe ix.ix_slots ix.ix_mask a (hash a land ix.ix_mask)

exception Full

(* The slot of [a], claimed if [a] has none; [Full] rather than fill
   more than three quarters of the slots. *)
let rec claim slots mask used a i =
  let k = Array.unsafe_get slots (2 * i) in
  if k = a then i
  else if k = empty then begin
    if 4 * (!used + 1) > 3 * (mask + 1) then raise_notrace Full;
    incr used;
    Array.unsafe_set slots (2 * i) a;
    i
  end
  else claim slots mask used a ((i + 1) land mask)

let no_rule = { rule_id = no_op; bb = 0; insn = 0; data = [||] }

(* Three passes over the rules: claim a slot per address and count each
   anchor's rules, lay the runs out, then place each rule in its run.
   [cap] slots, a power of two; doubled when the addresses outgrow it. *)
let rec build_index ~cap ~n ~m f =
  let mask = cap - 1 and used = ref 0 in
  let slots = Array.make (2 * cap) 0 in
  for i = 0 to mask do
    slots.(2 * i) <- empty
  done;
  let slot a = 2 * claim slots mask used a (hash a land mask) + 1 in
  match
    List.iter
      (fun r ->
        let b = slot r.bb in
        slots.(b) <- slots.(b) lor 1;
        if r.rule_id <> no_op then
          let s = slot r.insn in
          slots.(s) <- slots.(s) + 2)
      f.rf_rules
  with
  | exception Full -> build_index ~cap:(2 * cap) ~n ~m f
  | () ->
    let next = ref 0 in
    for i = 0 to mask do
      let v = slots.((2 * i) + 1) in
      slots.((2 * i) + 1) <- (!next lsl 21) lor (v land 1);
      next := !next + run_length v
    done;
    let rules = Array.make m no_rule in
    List.iter
      (fun r ->
        if r.rule_id <> no_op then begin
          let s = slot r.insn in
          let v = slots.(s) in
          rules.(run_start v + run_length v) <- r;
          slots.(s) <- v + 2
        end)
      f.rf_rules;
    { ix_slots = slots; ix_mask = mask; ix_rules = rules; ix_size = n }

(* A file's blocks and anchors mostly share addresses, so the first
   table is sized for as many addresses as rules. *)
let build f =
  let n = ref 0 and m = ref 0 in
  List.iter
    (fun r ->
      incr n;
      if r.rule_id <> no_op then incr m)
    f.rf_rules;
  let cap = ref 16 in
  while 3 * !cap < 4 * !n do
    cap := 2 * !cap
  done;
  build_index ~cap:!cap ~n:!n ~m:!m f

module Indexes = Jt_derived.Derived.Make (struct
  type t = file

  let hash = Hashtbl.hash
end)

let indexes = Indexes.create ()
let index f = Indexes.find_or_add indexes f build
let indexed f = Option.is_some (Indexes.find indexes f)

module Index = struct
  type rule = t
  type t = index

  let span ix i = ix.ix_slots.((2 * i) + 1)

  let bb_seen ix a =
    let i = find ix a in
    i >= 0 && span ix i land 1 = 1

  let rec list_of rules lo k acc =
    if k < lo then acc else list_of rules lo (k - 1) (rules.(k) :: acc)

  let rules_of ix i =
    let v = span ix i in
    list_of ix.ix_rules (run_start v) (run_start v + run_length v - 1) []

  let at_insn ix a =
    let i = find ix a in
    if i < 0 then [] else rules_of ix i

  let fold_at f ix a acc =
    let i = find ix a in
    if i < 0 then acc
    else
      let v = span ix i in
      let acc = ref acc in
      for k = run_start v to run_start v + run_length v - 1 do
        acc := f ix.ix_rules.(k) !acc
      done;
      !acc

  let rec exists_in rules p k hi = k < hi && (p rules.(k) || exists_in rules p (k + 1) hi)

  let exists_at ix a p =
    let i = find ix a in
    i >= 0
    &&
    let v = span ix i in
    exists_in ix.ix_rules p (run_start v) (run_start v + run_length v)

  let size ix = ix.ix_size

  let fold f ix acc =
    let acc = ref acc in
    for i = 0 to ix.ix_mask do
      if ix.ix_slots.(2 * i) <> empty && run_length (span ix i) > 0
      then acc := f ix.ix_slots.(2 * i) (rules_of ix i) !acc
    done;
    !acc
end

let shift ~base rs =
  if base = 0 then rs
  else List.map (fun r -> { r with bb = r.bb + base; insn = r.insn + base }) rs
