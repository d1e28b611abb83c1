type term =
  | Tjmp of int
  | Tjcc of int * int
  | Tjmp_ind of int list
  | Tcall of int * int
  | Tcall_ind of int
  | Tret
  | Thalt
  | Tfall of int

type block = {
  ib_addr : int;
  ib_ninsns : int;
  ib_term : term;
  ib_succs : int list;
  ib_preds : int list;
}

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

type stackinfo = {
  ik_entry : int;
  ik_frame : int option;
  ik_canary : bool;
  ik_push : int;
}

type vsa_value = Vbot | Vcst of int * int | Vsprel of int * int | Vtop

type fn = {
  if_entry : int;
  if_name : string option;
  if_blocks : int list;
  if_loops : (int * int list) list;
  if_live_all : bool;
  if_live : (int * int * int) list;
  if_canaries : canary list;
  if_scev : scev list;
  if_stack : stackinfo;
  if_vsa : (int * vsa_value array) list option;
  if_idom : int list;
  if_defuse : (int * (int * int list) list) list;
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
  ir_blocks : block list;
  ir_fns : fn list;
  ir_cpa : Jt_analysis.Cpa.site list;
}

let magic = "JTIR"

let schema_version = 3

(* ---- encoding ----

   Little-endian, rules.ml's "JTR3" idiom: fixed-width integers written
   through a Buffer, length-prefixed strings and lists.  Every count is
   validated against the remaining bytes on decode, so a corrupt header
   cannot demand a gigabyte allocation.  The last 16 bytes are a
   [Digest] of everything before them: a flipped byte that still parses
   (a liveness mask, a VSA bound) would otherwise reconstruct into
   silently different facts. *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let u16 b v =
  u8 b v;
  u8 b (v lsr 8)

let u32 b v =
  u16 b v;
  u16 b (v lsr 16)

(* 32-bit two's complement; round-trips any int in [-2^31, 2^32-1], which
   covers addresses, masked words and signed analysis values alike. *)
let i32 b v = u32 b (v land 0xFFFFFFFF)

let str8 b s =
  if String.length s > 0xFF then invalid_arg "Ir.encode: string over 255";
  u8 b (String.length s);
  Buffer.add_string b s

let str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Ir.encode: string over 64K";
  u16 b (String.length s);
  Buffer.add_string b s

let list16 b f l =
  if List.length l > 0xFFFF then invalid_arg "Ir.encode: list over 64K";
  u16 b (List.length l);
  List.iter (f b) l

let list32 b f l =
  u32 b (List.length l);
  List.iter (f b) l

let enc_ints16 b l = list16 b u32 l
let enc_ints32 b l = list32 b u32 l

let enc_term b = function
  | Tjmp t ->
    u8 b 0;
    u32 b t
  | Tjcc (t, f) ->
    u8 b 1;
    u32 b t;
    u32 b f
  | Tjmp_ind ts ->
    u8 b 2;
    enc_ints16 b ts
  | Tcall (t, r) ->
    u8 b 3;
    u32 b t;
    u32 b r
  | Tcall_ind r ->
    u8 b 4;
    u32 b r
  | Tret -> u8 b 5
  | Thalt -> u8 b 6
  | Tfall n ->
    u8 b 7;
    u32 b n

let enc_block b (bl : block) =
  u32 b bl.ib_addr;
  u32 b bl.ib_ninsns;
  enc_term b bl.ib_term;
  enc_ints16 b bl.ib_succs;
  enc_ints16 b bl.ib_preds

let enc_mem b (m : mem) =
  i32 b m.im_base;
  i32 b m.im_index;
  u8 b m.im_scale;
  u32 b m.im_disp

let enc_access b (a : access) =
  u32 b a.ia_addr;
  enc_mem b a.ia_mem;
  u8 b a.ia_width;
  u8 b (if a.ia_is_store then 1 else 0)

let enc_scev b (s : scev) =
  u32 b s.is_head;
  u32 b s.is_preheader;
  u32 b s.is_check_at;
  u8 b s.is_ivar;
  i32 b s.is_init;
  (match s.is_bound with
  | Ibnd_imm v ->
    u8 b 0;
    i32 b v
  | Ibnd_reg r ->
    u8 b 1;
    u8 b r);
  u8 b (if s.is_bound_incl then 1 else 0);
  list16 b enc_access s.is_affine;
  list16 b enc_access s.is_invariant

let enc_canary b (c : canary) =
  u32 b c.ic_fn;
  u32 b c.ic_store;
  u32 b c.ic_after;
  i32 b c.ic_disp;
  enc_ints16 b c.ic_loads

let enc_stack b (s : stackinfo) =
  u32 b s.ik_entry;
  (match s.ik_frame with
  | None -> u8 b 0
  | Some v ->
    u8 b 1;
    i32 b v);
  u8 b (if s.ik_canary then 1 else 0);
  i32 b s.ik_push

let enc_value b = function
  | Vbot -> u8 b 0
  | Vcst (lo, hi) ->
    u8 b 1;
    i32 b lo;
    i32 b hi
  | Vsprel (lo, hi) ->
    u8 b 2;
    i32 b lo;
    i32 b hi
  | Vtop -> u8 b 3

let enc_fn b (f : fn) =
  u32 b f.if_entry;
  (match f.if_name with
  | None -> u8 b 0
  | Some n ->
    u8 b 1;
    str16 b n);
  enc_ints32 b f.if_blocks;
  list16 b
    (fun b (head, body) ->
      u32 b head;
      enc_ints32 b body)
    f.if_loops;
  u8 b (if f.if_live_all then 1 else 0);
  list32 b
    (fun b (addr, regs, flags) ->
      u32 b addr;
      u16 b regs;
      u8 b flags)
    f.if_live;
  list16 b enc_canary f.if_canaries;
  list16 b enc_scev f.if_scev;
  enc_stack b f.if_stack;
  (match f.if_vsa with
  | None -> u8 b 0
  | Some ins ->
    u8 b 1;
    list32 b
      (fun b (addr, vals) ->
        u32 b addr;
        u8 b (Array.length vals);
        Array.iter (enc_value b) vals)
      ins);
  enc_ints32 b f.if_idom;
  list32 b
    (fun b (addr, env) ->
      u32 b addr;
      list16 b
        (fun b (reg, defs) ->
          u8 b reg;
          list16 b i32 defs)
        env)
    f.if_defuse

(* An unresolved (Top) site has no witness; its slot is written as 0. *)
let enc_cpa b (c : Jt_analysis.Cpa.site) =
  u32 b c.cs_fn;
  u32 b c.cs_site;
  match c.cs_targets with
  | None ->
    u8 b 0;
    u32 b 0;
    enc_ints32 b []
  | Some ts ->
    u8 b 1;
    u32 b c.cs_witness;
    enc_ints32 b ts

let digest_len = 16

let encode (t : t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  u16 b schema_version;
  str8 b t.ir_digest;
  str16 b t.ir_module;
  u8 b (if t.ir_reliable then 1 else 0);
  u32 b (Array.length t.ir_insns);
  Array.iter
    (fun (addr, len) ->
      u32 b addr;
      u8 b len)
    t.ir_insns;
  enc_ints32 b t.ir_leaders;
  enc_ints32 b t.ir_func_entries;
  list32 b
    (fun b (addr, ts) ->
      u32 b addr;
      enc_ints16 b ts)
    t.ir_jump_tables;
  enc_ints32 b t.ir_code_ptrs;
  list32 b enc_block t.ir_blocks;
  list32 b enc_fn t.ir_fns;
  list32 b enc_cpa t.ir_cpa;
  Buffer.add_string b (Digest.string (Buffer.contents b));
  Buffer.contents b

(* ---- decoding ---- *)

(* [lim] excludes the trailing checksum from every bounds check. *)
type reader = { s : string; lim : int; mutable pos : int }

let fail why = failwith ("Ir.decode: " ^ why)

let byte r =
  if r.pos >= r.lim then fail "truncated";
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r16 r =
  let a = byte r in
  a lor (byte r lsl 8)

let r32 r =
  let a = r16 r in
  a lor (r16 r lsl 16)

let ri32 r =
  let v = r32 r in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let rstr r n =
  if n < 0 || r.pos + n > r.lim then fail "truncated string";
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let rstr8 r = rstr r (byte r)
let rstr16 r = rstr r (r16 r)

(* A list header's count must leave room for at least [min] bytes per
   element — the up-front cheapness check that keeps corrupt counts from
   driving huge allocations or long loops. *)
let rlist r ~min ~count f =
  let n = count r in
  if n * min > r.lim - r.pos then fail "bad count";
  List.init n (fun _ -> f r)

let rlist16 r ~min f = rlist r ~min ~count:r16 f
let rlist32 r ~min f = rlist r ~min ~count:r32 f

let rints16 r = rlist16 r ~min:4 r32
let rints32 r = rlist32 r ~min:4 r32

let rterm r =
  match byte r with
  | 0 -> Tjmp (r32 r)
  | 1 ->
    let t = r32 r in
    Tjcc (t, r32 r)
  | 2 -> Tjmp_ind (rints16 r)
  | 3 ->
    let t = r32 r in
    Tcall (t, r32 r)
  | 4 -> Tcall_ind (r32 r)
  | 5 -> Tret
  | 6 -> Thalt
  | 7 -> Tfall (r32 r)
  | _ -> fail "bad terminator tag"

(* [of_ir] allocates [ib_ninsns] slots per block, so a count beyond the
   entry's own instruction total is rejected here. *)
let rblock ~max_insns r =
  let ib_addr = r32 r in
  let ib_ninsns = r32 r in
  if ib_ninsns > max_insns then fail "block insn count";
  let ib_term = rterm r in
  let ib_succs = rints16 r in
  let ib_preds = rints16 r in
  { ib_addr; ib_ninsns; ib_term; ib_succs; ib_preds }

let rmem r =
  let im_base = ri32 r in
  let im_index = ri32 r in
  let im_scale = byte r in
  let im_disp = r32 r in
  { im_base; im_index; im_scale; im_disp }

let raccess r =
  let ia_addr = r32 r in
  let ia_mem = rmem r in
  let ia_width = byte r in
  let ia_is_store = byte r <> 0 in
  { ia_addr; ia_mem; ia_width; ia_is_store }

let rscev r =
  let is_head = r32 r in
  let is_preheader = r32 r in
  let is_check_at = r32 r in
  let is_ivar = byte r in
  let is_init = ri32 r in
  let is_bound =
    match byte r with
    | 0 -> Ibnd_imm (ri32 r)
    | 1 -> Ibnd_reg (byte r)
    | _ -> fail "bad bound tag"
  in
  let is_bound_incl = byte r <> 0 in
  let is_affine = rlist16 r ~min:15 raccess in
  let is_invariant = rlist16 r ~min:15 raccess in
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
  let ic_fn = r32 r in
  let ic_store = r32 r in
  let ic_after = r32 r in
  let ic_disp = ri32 r in
  let ic_loads = rints16 r in
  { ic_fn; ic_store; ic_after; ic_disp; ic_loads }

let rstack r =
  let ik_entry = r32 r in
  let ik_frame = match byte r with 0 -> None | _ -> Some (ri32 r) in
  let ik_canary = byte r <> 0 in
  let ik_push = ri32 r in
  { ik_entry; ik_frame; ik_canary; ik_push }

let rvalue r =
  match byte r with
  | 0 -> Vbot
  | 1 ->
    let lo = ri32 r in
    Vcst (lo, ri32 r)
  | 2 ->
    let lo = ri32 r in
    Vsprel (lo, ri32 r)
  | 3 -> Vtop
  | _ -> fail "bad value tag"

(* The idoms must form a tree rooted at the entry: one per block, each a
   block of the function, only the entry its own idom, and every parent
   chain ending at the entry.  Without this a crafted entry could hand
   [Domtree] a cycle that no analysis produced. *)
let check_idoms ~entry blocks idoms =
  let n = List.length blocks in
  if List.length idoms <> n then fail "idom count";
  let parent = Hashtbl.create n in
  List.iter2
    (fun b p ->
      if Hashtbl.mem parent b then fail "duplicate block";
      Hashtbl.replace parent b p)
    blocks idoms;
  if Hashtbl.find_opt parent entry <> Some entry then fail "entry idom";
  (* [true]: known to reach the entry; [false]: on the chain being
     climbed, so meeting it again is a cycle. *)
  let reaches = Hashtbl.create n in
  Hashtbl.replace reaches entry true;
  let rec climb path a =
    match Hashtbl.find_opt reaches a with
    | Some true -> List.iter (fun x -> Hashtbl.replace reaches x true) path
    | Some false -> fail "idom cycle"
    | None -> (
      Hashtbl.replace reaches a false;
      match Hashtbl.find_opt parent a with
      | None -> fail "idom outside the function"
      | Some p when p = a -> fail "non-entry block is its own idom"
      | Some p -> climb (a :: path) p)
  in
  List.iter (climb []) blocks

let rfn r =
  let if_entry = r32 r in
  let if_name = match byte r with 0 -> None | _ -> Some (rstr16 r) in
  let if_blocks = rints32 r in
  let if_loops =
    rlist16 r ~min:8 (fun r ->
        let head = r32 r in
        (head, rints32 r))
  in
  let if_live_all = byte r <> 0 in
  let if_live =
    rlist32 r ~min:7 (fun r ->
        let addr = r32 r in
        let regs = r16 r in
        let flags = byte r in
        (addr, regs, flags))
  in
  let if_canaries = rlist16 r ~min:18 rcanary in
  let if_scev = rlist16 r ~min:24 rscev in
  let if_stack = rstack r in
  let if_vsa =
    match byte r with
    | 0 -> None
    | _ ->
      Some
        (rlist32 r ~min:6 (fun r ->
             let addr = r32 r in
             let n = byte r in
             (addr, Array.init n (fun _ -> rvalue r))))
  in
  let if_idom = rints32 r in
  check_idoms ~entry:if_entry if_blocks if_idom;
  let if_defuse =
    rlist32 r ~min:6 (fun r ->
        let addr = r32 r in
        ( addr,
          rlist16 r ~min:3 (fun r ->
              let reg = byte r in
              (reg, rlist16 r ~min:4 ri32)) ))
  in
  {
    if_entry;
    if_name;
    if_blocks;
    if_loops;
    if_live_all;
    if_live;
    if_canaries;
    if_scev;
    if_stack;
    if_vsa;
    if_idom;
    if_defuse;
  }

let rcpa r =
  let cs_fn = r32 r in
  let cs_site = r32 r in
  let resolved = byte r <> 0 in
  let cs_witness = r32 r in
  let targets = rints32 r in
  if resolved then
    { Jt_analysis.Cpa.cs_fn; cs_site; cs_targets = Some targets; cs_witness }
  else { Jt_analysis.Cpa.cs_fn; cs_site; cs_targets = None; cs_witness = 0 }

let check_header r =
  if r.lim < 6 then fail "truncated";
  if String.sub r.s 0 4 <> magic then fail "bad magic";
  r.pos <- 4;
  let v = r16 r in
  if v <> schema_version then
    fail (Printf.sprintf "schema version %d, expected %d" v schema_version)

let decode s =
  let n = String.length s - digest_len in
  let r = { s; lim = n; pos = 0 } in
  check_header r;
  if not (String.equal (Digest.substring s 0 n) (String.sub s n digest_len))
  then fail "checksum mismatch";
  let ir_digest = rstr8 r in
  let ir_module = rstr16 r in
  let ir_reliable = byte r <> 0 in
  let n_insns = r32 r in
  if n_insns * 5 > n - r.pos then fail "bad insn count";
  let ir_insns =
    Array.init n_insns (fun _ ->
        let addr = r32 r in
        let len = byte r in
        (addr, len))
  in
  let ir_leaders = rints32 r in
  let ir_func_entries = rints32 r in
  let ir_jump_tables =
    rlist32 r ~min:6 (fun r ->
        let addr = r32 r in
        (addr, rints16 r))
  in
  let ir_code_ptrs = rints32 r in
  let ir_blocks = rlist32 r ~min:17 (rblock ~max_insns:n_insns) in
  let ir_fns = rlist32 r ~min:40 rfn in
  let ir_cpa = rlist32 r ~min:17 rcpa in
  if r.pos <> n then fail "trailing bytes";
  {
    ir_module;
    ir_digest;
    ir_reliable;
    ir_insns;
    ir_leaders;
    ir_func_entries;
    ir_jump_tables;
    ir_code_ptrs;
    ir_blocks;
    ir_fns;
    ir_cpa;
  }

let peek_digest s =
  let r = { s; lim = String.length s; pos = 0 } in
  check_header r;
  rstr8 r
