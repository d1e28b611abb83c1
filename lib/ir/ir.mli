(** The serializable intermediate representation — the common spine every
    tool consumes (DESIGN.md §13).

    One GTIRB-shaped value per module: the recovered disassembly
    (interval-keyed instruction spans, block leaders, function entries,
    jump tables and the raw code-pointer scan) and typed fields carrying
    the fixpoint facts the tools read — liveness, SCEV loop bounds,
    canary sites and the per-indirect-call-site code-pointer provenance
    sets.  Nothing a consumer can rebuild from the disassembly is
    stored: blocks, terminators, edges, function membership and names,
    dominators and natural loops all come from {!Jt_cfg.Cfg.build} over
    the re-decoded disassembly, and VSA in-states and def-use chains are
    recomputed from that CFG on first use (CPA, VSA's one warm reader,
    is itself persisted).

    The representation is deliberately *pure data*: no closures, no
    lazies, no hashtables — so structural equality is meaningful (the
    qcheck round-trip property is [decode (encode ir) = ir]) and the
    binary codec is total over well-formed values.  Decoded instructions
    are NOT stored; the consumer re-decodes each span (address, length)
    from the module's section bytes, which the content digest pins down
    exactly, and the stored length must match.  What the store saves is
    the expensive part — recursive-traversal disassembly and the
    fixpoint analyses the tools read — not the linear decode or the CFG
    built over it. *)

(** Memory operand, registers as indices: [im_base] is a register index,
    [-1] for none, [-2] for pc-relative. *)
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

(** One function's facts, keyed by its entry: [of_ir] pairs [ir_fns]
    with the rebuilt CFG's functions in entry order. *)
type fn = {
  if_entry : int;
  if_live_all : bool;
  if_live : (int * int * int) list;
      (** (insn addr, live register mask, live flag bits) *)
  if_canaries : canary list;
  if_scev : scev list;
}

type t = {
  ir_module : string;
  ir_digest : string;  (** [Objfile.digest] of the producing module *)
  ir_reliable : bool;
  ir_insns : (int * int) array;  (** sorted (address, length) spans *)
  ir_leaders : int list;
  ir_func_entries : int list;
  ir_jump_tables : (int * int list) list;
  ir_code_ptrs : int list;  (** raw sliding-window pointer-scan results *)
  ir_fns : fn list;
  ir_cpa : Jt_analysis.Cpa.site list;
      (** code-pointer provenance, one entry per indirect call site
          ({!Jt_analysis.Cpa.export} order) *)
}

val magic : string
(** ["JTIR"], the first four bytes of every encoding. *)

val schema_version : int
(** Bumped on any layout change; a mismatch degrades to re-analysis. *)

val encode : t -> string
(** The IR in the sealed {!Jt_codec.Codec.seal} frame: magic, schema
    version and payload length first, the module digest at the head of
    the payload, and an MD5 of everything before it as the last 16
    bytes. *)

val decode : string -> t
(** Inverse of {!encode}.
    @raise Jt_codec.Codec.Decode_error (format ["JTIR"]) on truncation,
    bad magic, a schema-version mismatch, a length or checksum mismatch,
    or any other malformed payload. *)
