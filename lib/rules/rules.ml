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

module Table = struct
  type rule = t

  type nonrec t = {
    bbs : (int, unit) Hashtbl.t;
    by_insn : (int, rule list) Hashtbl.t;
    count : int;
  }

  let load f ~base ~pic =
    let adj a = if pic then a + base else a in
    let bbs = Hashtbl.create 256 in
    let by_insn = Hashtbl.create 256 in
    (* Accumulate per-insn rule lists reversed and flip them once at the
       end: the old [prev @ [ r ]] append made loading N same-insn rules
       quadratic. *)
    List.iter
      (fun r ->
        let r = { r with bb = adj r.bb; insn = adj r.insn } in
        Hashtbl.replace bbs r.bb ();
        if r.rule_id <> no_op then
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_insn r.insn) in
          Hashtbl.replace by_insn r.insn (r :: prev))
      f.rf_rules;
    Hashtbl.filter_map_inplace (fun _ rs -> Some (List.rev rs)) by_insn;
    { bbs; by_insn; count = List.length f.rf_rules }

  let bb_seen t a = Hashtbl.mem t.bbs a
  let at_insn t a = Option.value ~default:[] (Hashtbl.find_opt t.by_insn a)
  let size t = t.count
end
