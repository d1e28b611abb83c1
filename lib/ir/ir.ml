module Codec = Jt_codec.Codec

type mem = { im_base : int; im_index : int; im_scale : int; im_disp : int }

type access = {
  ia_addr : int;
  ia_mem : mem;
  ia_width : int;
  ia_is_store : bool;
}

type bound = Ibnd_imm of int | Ibnd_reg of int

type scev = {
  is_head : int;
  is_preheader : int;
  is_check_at : int;
  is_ivar : int;
  is_init : int;
  is_bound : bound;
  is_bound_incl : bool;
  is_affine : access list;
  is_invariant : access list;
}

type canary = {
  ic_fn : int;
  ic_store : int;
  ic_after : int;
  ic_disp : int;
  ic_loads : int list;
}

type fn = {
  if_entry : int;
  if_live_all : bool;
  if_live : (int * int * int) list;
  if_canaries : canary list;
  if_scev : scev list;
}

type t = {
  ir_module : string;
  ir_digest : string;
  ir_reliable : bool;
  ir_insns : (int * int) array;
  ir_leaders : int list;
  ir_func_entries : int list;
  ir_jump_tables : (int * int list) list;
  ir_code_ptrs : int list;
  ir_fns : fn list;
  ir_cpa : Jt_analysis.Cpa.site list;
}

let magic = "JTIR"

let schema_version = 7

(* ---- encoding ----

   The shared sealed frame: its MD5 matters here because a flipped byte
   that still parses (a liveness mask, a leader) would otherwise
   reconstruct into silently different facts.  [i32] marks the signed
   analysis values; both writers keep the low 32 bits, so any int in
   [-2^31, 2^32-1] round-trips through its reader. *)

module W = Codec.W

let ints16 = W.list U16 W.u32
let ints32 = W.list U32 W.u32

let enc_mem b (m : mem) =
  W.i32 b m.im_base;
  W.i32 b m.im_index;
  W.u8 b m.im_scale;
  W.u32 b m.im_disp

let enc_access b (a : access) =
  W.u32 b a.ia_addr;
  enc_mem b a.ia_mem;
  W.u8 b a.ia_width;
  W.bool b a.ia_is_store

let enc_scev b (s : scev) =
  W.u32 b s.is_head;
  W.u32 b s.is_preheader;
  W.u32 b s.is_check_at;
  W.u8 b s.is_ivar;
  W.i32 b s.is_init;
  (match s.is_bound with
  | Ibnd_imm v ->
    W.u8 b 0;
    W.i32 b v
  | Ibnd_reg r ->
    W.u8 b 1;
    W.u8 b r);
  W.bool b s.is_bound_incl;
  W.list U16 enc_access b s.is_affine;
  W.list U16 enc_access b s.is_invariant

let enc_canary b (c : canary) =
  W.u32 b c.ic_fn;
  W.u32 b c.ic_store;
  W.u32 b c.ic_after;
  W.i32 b c.ic_disp;
  ints16 b c.ic_loads

let enc_fn b (f : fn) =
  W.u32 b f.if_entry;
  W.bool b f.if_live_all;
  W.list U32
    (fun b (addr, regs, flags) ->
      W.u32 b addr;
      W.u16 b regs;
      W.u8 b flags)
    b f.if_live;
  W.list U16 enc_canary b f.if_canaries;
  W.list U16 enc_scev b f.if_scev

(* An unresolved (Top) site has no witness; its slot is written as 0. *)
let enc_cpa b (c : Jt_analysis.Cpa.site) =
  W.u32 b c.cs_fn;
  W.u32 b c.cs_site;
  match c.cs_targets with
  | None ->
    W.bool b false;
    W.u32 b 0;
    ints32 b []
  | Some ts ->
    W.bool b true;
    W.u32 b c.cs_witness;
    ints32 b ts

let encode (t : t) =
  Codec.seal ~magic ~version:schema_version (fun b ->
      W.str U8 b t.ir_digest;
      W.str U16 b t.ir_module;
      W.bool b t.ir_reliable;
      W.array U32
        (fun b (addr, len) ->
          W.u32 b addr;
          W.u8 b len)
        b t.ir_insns;
      ints32 b t.ir_leaders;
      ints32 b t.ir_func_entries;
      W.list U32
        (fun b (addr, ts) ->
          W.u32 b addr;
          ints16 b ts)
        b t.ir_jump_tables;
      ints32 b t.ir_code_ptrs;
      W.list U32 enc_fn b t.ir_fns;
      W.list U32 enc_cpa b t.ir_cpa)

(* ---- decoding ----

   Each list's [~min] is the smallest encoding of one element. *)

module R = Codec.R

let rints16 = R.list U16 ~min:4 R.u32
let rints32 = R.list U32 ~min:4 R.u32

let rmem r =
  let im_base = R.i32 r in
  let im_index = R.i32 r in
  let im_scale = R.u8 r in
  let im_disp = R.u32 r in
  { im_base; im_index; im_scale; im_disp }

let raccess r =
  let ia_addr = R.u32 r in
  let ia_mem = rmem r in
  let ia_width = R.u8 r in
  let ia_is_store = R.bool r in
  { ia_addr; ia_mem; ia_width; ia_is_store }

let rscev r =
  let is_head = R.u32 r in
  let is_preheader = R.u32 r in
  let is_check_at = R.u32 r in
  let is_ivar = R.u8 r in
  let is_init = R.i32 r in
  let is_bound =
    match R.u8 r with
    | 0 -> Ibnd_imm (R.i32 r)
    | 1 -> Ibnd_reg (R.u8 r)
    | _ -> R.fail r "bad bound tag"
  in
  let is_bound_incl = R.bool r in
  let is_affine = R.list U16 ~min:15 raccess r in
  let is_invariant = R.list U16 ~min:15 raccess r in
  {
    is_head;
    is_preheader;
    is_check_at;
    is_ivar;
    is_init;
    is_bound;
    is_bound_incl;
    is_affine;
    is_invariant;
  }

let rcanary r =
  let ic_fn = R.u32 r in
  let ic_store = R.u32 r in
  let ic_after = R.u32 r in
  let ic_disp = R.i32 r in
  let ic_loads = rints16 r in
  { ic_fn; ic_store; ic_after; ic_disp; ic_loads }

let rfn r =
  let if_entry = R.u32 r in
  let if_live_all = R.bool r in
  let if_live =
    R.list U32 ~min:7
      (fun r ->
        let addr = R.u32 r in
        let regs = R.u16 r in
        (addr, regs, R.u8 r))
      r
  in
  let if_canaries = R.list U16 ~min:18 rcanary r in
  let if_scev = R.list U16 ~min:24 rscev r in
  { if_entry; if_live_all; if_live; if_canaries; if_scev }

let rcpa r =
  let cs_fn = R.u32 r in
  let cs_site = R.u32 r in
  let resolved = R.bool r in
  let cs_witness = R.u32 r in
  let targets = rints32 r in
  if resolved then
    { Jt_analysis.Cpa.cs_fn; cs_site; cs_targets = Some targets; cs_witness }
  else { Jt_analysis.Cpa.cs_fn; cs_site; cs_targets = None; cs_witness = 0 }

let decode =
  Codec.unseal ~magic ~version:schema_version (fun r ->
      let ir_digest = R.str U8 r in
      let ir_module = R.str U16 r in
      let ir_reliable = R.bool r in
      let ir_insns =
        R.array U32 ~min:5
          (fun r ->
            let addr = R.u32 r in
            (addr, R.u8 r))
          r
      in
      let ir_leaders = rints32 r in
      let ir_func_entries = rints32 r in
      let ir_jump_tables =
        R.list U32 ~min:6
          (fun r ->
            let addr = R.u32 r in
            (addr, rints16 r))
          r
      in
      let ir_code_ptrs = rints32 r in
      let ir_fns = R.list U32 ~min:13 rfn r in
      let ir_cpa = R.list U32 ~min:17 rcpa r in
      {
        ir_module;
        ir_digest;
        ir_reliable;
        ir_insns;
        ir_leaders;
        ir_func_entries;
        ir_jump_tables;
        ir_code_ptrs;
        ir_fns;
        ir_cpa;
      })
