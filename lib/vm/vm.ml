open Jt_isa

type fault =
  | Decode_fault of int
  | Halted of int
  | Out_of_fuel
  | Load_fault of string

type status = Running | Exited of int | Fault of fault | Aborted of string

type violation = { v_kind : string; v_addr : int; v_pc : int }

type t = {
  mem : Jt_mem.Memory.t;
  loader : Jt_loader.Loader.t;
  alloc : Alloc.t;
  regs : int array;
  flags : Flags.state;
  mutable pc : int;
  mutable cycles : int;
  mutable icount : int;
  mutable status : status;
  out : Buffer.t;
  canary : int;
  mutable violations : violation list;
  mutable phases : int list;
  mutable jit_next : int;
  decode_table : decoded Addr_table.t;
  front_tags : int array;
  front_ops : op array;
  young_tags : int array;
  young : decoded array;
  mutable flush_listeners : (int -> int -> unit) list;
  handles : (int, Jt_loader.Loader.loaded) Hashtbl.t;
  mutable next_handle : int;
  mutable input : int list;
  mutable syscall_hooks : (t -> unit) array;
  instrument : (at:int -> Insn.t -> int -> op -> op) option;
}

and op = t -> unit

and decoded = { d_insn : Insn.t; d_len : int; d_op : op }

let sentinel = 0xFFFF_FF00
let stack_top = 0x7F00_0000
let jit_base = 0x6000_0000
let jit_region = (jit_base, 0x7000_0000)

(* The decode front: a direct-mapped cache of compiled ops indexed by the
   low bits of the PC, read by [run] before the decode table.  At 256
   slots each array is small enough to come from the minor heap. *)
let front_size = 256
let front_mask = front_size - 1
let no_op (_ : t) = ()

(* The decode table's "no entry", and the markers [run] leaves at an
   address it has executed once: it keeps the entry from the second
   execution on.  A marker spans its instruction (one shared marker per
   length), so a write into any of the instruction's bytes drops it, and
   the young decode it stands for is not read again. *)
let no_decoded = { d_insn = Insn.Nop; d_len = 0; d_op = no_op }
let seen_op (t : t) = ignore (Sys.opaque_identity t)

let seen =
  Array.init (Decode.max_len + 1) (fun len ->
      { d_insn = Insn.Nop; d_len = len; d_op = seen_op })

let[@inline] is_seen d = d.d_op == seen_op
let decoded_kind = Addr_table.kind ~none:no_decoded ~span:(fun d -> d.d_len)

(* The young decodes: a direct-mapped cache, indexed like the front, of
   the decode each address's first execution ran.  A second execution
   that finds its decode here keeps it instead of decoding again; most
   second executions follow their first within a few hundred new
   addresses (a loop's second trip), and a decode that leaves unused
   dies young.  [run] reads a slot only where the table holds a marker,
   and only a first execution, which refills the slot, sets one. *)
let young_size = 256
let young_mask = young_size - 1

(* The syscall hooks, one slot per syscall byte.  A slot holding
   [unhooked] runs the built-in handler; every machine shares [no_hooks]
   until its first [set_syscall_hook]. *)
let unhooked (_ : t) = ()
let no_hooks = Array.make 256 unhooked

let make ?instrument ~registry () =
  let mem = Jt_mem.Memory.create () in
  let loader = Jt_loader.Loader.create ~mem ~registry in
  {
    mem;
    loader;
    alloc = Alloc.create ();
    regs = Array.make Reg.count 0;
    flags = Flags.create ();
    pc = sentinel;
    cycles = 0;
    icount = 0;
    status = Running;
    out = Buffer.create 256;
    canary = 0x5A5A_A5A5;
    violations = [];
    phases = [];
    jit_next = jit_base;
    (* one 256-word array until something is decoded: with thousands
       of tiny programs each booting a VM, the fixed cost per VM shows *)
    decode_table = Addr_table.create decoded_kind;
    front_tags = Array.make front_size (-1);
    front_ops = Array.make front_size no_op;
    young_tags = Array.make young_size (-1);
    young = Array.make young_size no_decoded;
    flush_listeners = [];
    handles = Hashtbl.create 8;
    next_handle = 1;
    input = [];
    syscall_hooks = no_hooks;
    instrument;
  }

let set_input t values = t.input <- values

let set_syscall_hook t n f =
  if n land lnot 255 <> 0 then invalid_arg "Vm.set_syscall_hook";
  if t.syscall_hooks == no_hooks then t.syscall_hooks <- Array.copy no_hooks;
  t.syscall_hooks.(n) <- f

let get t r = t.regs.(Reg.index r)
let set t r v = t.regs.(Reg.index r) <- Word.of_int v

let boot t ~main =
  (match Jt_loader.Loader.load_main t.loader main with
  | (_ : Jt_loader.Loader.loaded) -> ()
  | exception Jt_loader.Loader.Load_error e -> t.status <- Fault (Load_fault e));
  if t.status = Running then begin
    set t Reg.sp stack_top;
    t.phases <-
      Jt_loader.Loader.init_entries t.loader
      @ [ Jt_loader.Loader.entry_point t.loader ];
    t.pc <- sentinel
  end

(* Empty the decode-front slot of [addr] if it holds that address. *)
let unfront t addr =
  let s = addr land front_mask in
  if t.front_tags.(s) = addr then t.front_tags.(s) <- -1

(* Drop every decoded instruction whose byte span overlaps the range,
   one that wraps past the top of the address space included, and tell
   the listeners (a DBT drops its blocks there). *)
let drop_range t start len =
  Addr_table.flush t.decode_table start len (fun addr _ -> unfront t addr);
  List.iter (fun f -> f start len) t.flush_listeners

(* The guest's own writes: a write into a chunk that holds decoded code
   drops what was decoded from the bytes it overwrote, for no cycles. *)
let[@inline] write8 t a v = if Jt_mem.Memory.store8 t.mem a v then drop_range t a 1

let[@inline] write32 t a v =
  if Jt_mem.Memory.store32 t.mem a v then drop_range t a 4

let push t v =
  let sp = Word.sub (get t Reg.sp) 4 in
  set t Reg.sp sp;
  write32 t sp v

let pop t =
  let sp = get t Reg.sp in
  let v = Jt_mem.Memory.read32 t.mem sp in
  set t Reg.sp (Word.add sp 4);
  v

let advance_phase t =
  match t.phases with
  | next :: rest ->
    t.phases <- rest;
    push t sentinel;
    t.pc <- next
  | [] -> t.status <- Exited (get t Reg.r0)

let charge t c = t.cycles <- t.cycles + c

let report_violation t ~kind ~addr =
  t.violations <- { v_kind = kind; v_addr = addr; v_pc = t.pc } :: t.violations;
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.emit
      (Jt_trace.Trace.Violation
         {
           kind;
           addr;
           pc = t.pc;
           vmodule =
             (match Jt_loader.Loader.module_at t.loader t.pc with
             | Some l -> l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name
             | None -> "?");
           origin = Jt_trace.Trace.exec_origin ();
         })

let on_cache_flush t f = t.flush_listeners <- f :: t.flush_listeners

(* ---- flag computation ---- *)

let sign w = w land 0x8000_0000 <> 0

let flags_add t a b r =
  Flags.set_arith t.flags ~result:r
    ~carry:(a + b > Word.mask)
    ~overflow:(sign a = sign b && sign r <> sign a)

let flags_sub t a b r =
  Flags.set_arith t.flags ~result:r ~carry:(a < b)
    ~overflow:(sign a <> sign b && sign r <> sign a)

(* ---- syscalls ---- *)

let flush_range t start len =
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.emit (Jt_trace.Trace.Flush_range { start; len });
  drop_range t start len

let rec do_syscall t n =
  let f = if n land lnot 255 = 0 then Array.unsafe_get t.syscall_hooks n else unhooked in
  if f == unhooked then do_builtin_syscall t n else f t

and do_builtin_syscall t n =
  let a0 = get t Reg.r0 and a1 = get t Reg.r1 in
  if n = Sysno.exit_ then t.status <- Exited a0
  else if n = Sysno.write_int then begin
    Buffer.add_string t.out (string_of_int (Word.to_signed a0));
    Buffer.add_char t.out '\n'
  end
  else if n = Sysno.write_ch then Buffer.add_char t.out (Char.chr (a0 land 0xFF))
  else if n = Sysno.malloc then set t Reg.r0 (Alloc.malloc t.alloc a0)
  else if n = Sysno.free then begin
    Alloc.free t.alloc a0;
    set t Reg.r0 0
  end
  else if n = Sysno.dlopen then begin
    let name = Jt_mem.Memory.read_cstring t.mem a0 in
    match Jt_loader.Loader.dlopen t.loader name with
    | l ->
      (* Monotonic handle IDs: sizing off [Hashtbl.length] would reuse a
         live ID after a dlclose and silently alias another module. *)
      let h = t.next_handle in
      t.next_handle <- h + 1;
      Hashtbl.replace t.handles h l;
      if Jt_trace.Trace.is_enabled () then
        Jt_trace.Trace.emit (Jt_trace.Trace.Dlopen { name; handle = h });
      set t Reg.r0 h
    | exception Jt_loader.Loader.Load_error e -> t.status <- Fault (Load_fault e)
  end
  else if n = Sysno.dlsym then begin
    let sym = Jt_mem.Memory.read_cstring t.mem a1 in
    match Hashtbl.find_opt t.handles a0 with
    | None -> set t Reg.r0 0
    | Some l -> (
      match Jt_obj.Objfile.find_export l.lmod sym with
      | Some s -> set t Reg.r0 (Jt_loader.Loader.runtime_addr l s.vaddr)
      | None -> set t Reg.r0 0)
  end
  else if n = Sysno.mmap_code then begin
    let size = max a0 16 in
    let r = t.jit_next in
    t.jit_next <- (r + size + 0xFFF) land lnot 0xFFF;
    set t Reg.r0 r
  end
  else if n = Sysno.resolve then begin
    let sp = get t Reg.sp in
    let index = Jt_mem.Memory.read32 t.mem sp in
    let ret_addr = Jt_mem.Memory.read32 t.mem (sp + 4) in
    match
      Jt_loader.Loader.resolve_plt_index t.loader ~caller_pc:ret_addr ~index
    with
    | target -> write32 t sp target
    | exception Jt_loader.Loader.Load_error e -> t.status <- Fault (Load_fault e)
  end
  else if n = Sysno.cache_flush then flush_range t a0 a1
  else if n = Sysno.dlclose then begin
    match Hashtbl.find_opt t.handles a0 with
    | None -> set t Reg.r0 0
    | Some l ->
      let name = l.lmod.Jt_obj.Objfile.name in
      let ok = Jt_loader.Loader.dlclose t.loader name in
      if Jt_trace.Trace.is_enabled () then
        Jt_trace.Trace.emit (Jt_trace.Trace.Dlclose { name; ok });
      if ok then begin
        Hashtbl.remove t.handles a0;
        (* retire translated code for the whole module range *)
        List.iter
          (fun (s : Jt_obj.Section.t) ->
            if s.is_code then
              flush_range t
                (Jt_loader.Loader.runtime_addr l s.vaddr)
                (Jt_obj.Section.size s))
          l.lmod.sections;
        set t Reg.r0 1
      end
      else set t Reg.r0 0
  end
  else if n = Sysno.calloc then begin
    let addr = Alloc.malloc t.alloc a0 in
    for i = 0 to a0 - 1 do
      write8 t (addr + i) 0
    done;
    set t Reg.r0 addr
  end
  else if n = Sysno.realloc then begin
    if a0 = 0 then set t Reg.r0 (Alloc.malloc t.alloc a1)
    else begin
      let old_size =
        match Alloc.block_of t.alloc a0 with
        | Some (base, size, true) when base = a0 -> size
        | Some _ | None -> 0
      in
      let fresh = Alloc.malloc t.alloc a1 in
      for i = 0 to min old_size a1 - 1 do
        write8 t (fresh + i) (Jt_mem.Memory.read8 t.mem (a0 + i))
      done;
      Alloc.free t.alloc a0;
      set t Reg.r0 fresh
    end
  end
  else if n = Sysno.read_int then begin
    match t.input with
    | [] -> set t Reg.r0 0
    | v :: rest ->
      t.input <- rest;
      set t Reg.r0 v
  end
  else (* unknown syscall: returns -1 *)
    set t Reg.r0 (Word.of_int (-1))

(* ---- compilation ----

   Instruction semantics live here, once.  [compile ~at i len] fixes at
   decode time everything that does not depend on machine state — the
   addressing-mode shape, [next_pc], the [Cost.insn] charge, the operand
   registers and immediates — and returns one specialised closure per
   instruction shape.  Every op retires in the same order: [icount],
   then [cycles], then [pc <- next_pc], then the effect. *)

module Mem = Jt_mem.Memory

let[@inline] write16 t a v = if Mem.store16 t.mem a v then drop_range t a 2

let[@inline] retire t cost next_pc =
  t.icount <- t.icount + 1;
  t.cycles <- t.cycles + cost;
  t.pc <- next_pc

(* Register indices come from [Reg.index], so they are always in range. *)
let[@inline] rget t r = Array.unsafe_get t.regs r
let[@inline] rset t r v = Array.unsafe_set t.regs r (Word.of_int v)

(* The addressing mode of [m], resolved once: the registers it reads,
   its displacement, and a PC-relative or absolute address folded to a
   constant. *)
let compile_addr ~next_pc (m : Insn.mem) : t -> int =
  let disp = m.disp and scale = m.scale in
  match (m.base, m.index) with
  | Some (Insn.Breg b), None ->
    let b = Reg.index b in
    fun t -> Word.of_int (rget t b + disp)
  | Some (Insn.Breg b), Some x ->
    let b = Reg.index b and x = Reg.index x in
    fun t -> Word.of_int (rget t b + (rget t x * scale) + disp)
  | Some Insn.Bpc, None ->
    let a = Word.of_int (next_pc + disp) in
    fun _ -> a
  | Some Insn.Bpc, Some x ->
    let x = Reg.index x and c = next_pc + disp in
    fun t -> Word.of_int (c + (rget t x * scale))
  | None, None ->
    let a = Word.of_int disp in
    fun _ -> a
  | None, Some x ->
    let x = Reg.index x in
    fun t -> Word.of_int ((rget t x * scale) + disp)

(* The target of an indirect call or jump, read before the instruction
   runs.  A call through [sp] lands on the slot its own push fills. *)
let compile_target ~next_pc (i : Insn.t) : (t -> int) option =
  match i with
  | Insn.Call_ind (Some r, _) when Reg.equal r Reg.sp ->
    let r = Reg.index r in
    Some (fun t -> Word.sub (rget t r) 4)
  | Call_ind (Some r, _) | Jmp_ind (Some r, _) ->
    let r = Reg.index r in
    Some (fun t -> rget t r)
  | Call_ind (None, Some m) | Jmp_ind (None, Some m) ->
    let ea = compile_addr ~next_pc m in
    Some (fun t -> Mem.read32 t.mem (ea t))
  | _ -> None

let[@inline] logic t rd r =
  rset t rd r;
  Flags.set_logic t.flags ~result:r

let[@inline] arith_add t rd a b =
  let r = Word.add a b in
  rset t rd r;
  flags_add t a b r

let[@inline] arith_sub t rd a b =
  let r = Word.sub a b in
  rset t rd r;
  flags_sub t a b r

(* In the op builders, [c] is the instruction's native cost and [n] its
   next PC.  [Binop] immediates stay unmasked: the carry of an add reads
   the operand as decoded. *)
let binop_reg ~c ~n (op : Insn.binop) rd rs : op =
  match op with
  | Insn.Add -> fun t -> retire t c n; arith_add t rd (rget t rd) (rget t rs)
  | Sub -> fun t -> retire t c n; arith_sub t rd (rget t rd) (rget t rs)
  | And -> fun t -> retire t c n; logic t rd (Word.logand (rget t rd) (rget t rs))
  | Or -> fun t -> retire t c n; logic t rd (Word.logor (rget t rd) (rget t rs))
  | Xor -> fun t -> retire t c n; logic t rd (Word.logxor (rget t rd) (rget t rs))
  | Shl -> fun t -> retire t c n; logic t rd (Word.shl (rget t rd) (rget t rs))
  | Shr -> fun t -> retire t c n; logic t rd (Word.shr (rget t rd) (rget t rs))
  | Sar -> fun t -> retire t c n; logic t rd (Word.sar (rget t rd) (rget t rs))
  | Mul -> fun t -> retire t c n; logic t rd (Word.mul (rget t rd) (rget t rs))

let binop_imm ~c ~n (op : Insn.binop) rd b : op =
  match op with
  | Insn.Add -> fun t -> retire t c n; arith_add t rd (rget t rd) b
  | Sub -> fun t -> retire t c n; arith_sub t rd (rget t rd) b
  | And -> fun t -> retire t c n; logic t rd (Word.logand (rget t rd) b)
  | Or -> fun t -> retire t c n; logic t rd (Word.logor (rget t rd) b)
  | Xor -> fun t -> retire t c n; logic t rd (Word.logxor (rget t rd) b)
  | Shl -> fun t -> retire t c n; logic t rd (Word.shl (rget t rd) b)
  | Shr -> fun t -> retire t c n; logic t rd (Word.shr (rget t rd) b)
  | Sar -> fun t -> retire t c n; logic t rd (Word.sar (rget t rd) b)
  | Mul -> fun t -> retire t c n; logic t rd (Word.mul (rget t rd) b)

let jcc ~c ~n (cond : Insn.cond) target : op =
  match cond with
  | Insn.Eq -> fun t -> retire t c n; if t.flags.zf then t.pc <- target
  | Ne -> fun t -> retire t c n; if not t.flags.zf then t.pc <- target
  | Lt -> fun t -> retire t c n; if t.flags.sf <> t.flags.of_ then t.pc <- target
  | Ge -> fun t -> retire t c n; if t.flags.sf = t.flags.of_ then t.pc <- target
  | Le ->
    fun t ->
      retire t c n;
      let f = t.flags in
      if f.zf || f.sf <> f.of_ then t.pc <- target
  | Gt ->
    fun t ->
      retire t c n;
      let f = t.flags in
      if (not f.zf) && f.sf = f.of_ then t.pc <- target
  | Ult -> fun t -> retire t c n; if t.flags.cf then t.pc <- target
  | Uge -> fun t -> retire t c n; if not t.flags.cf then t.pc <- target
  | Ule -> fun t -> retire t c n; if t.flags.cf || t.flags.zf then t.pc <- target
  | Ugt ->
    fun t ->
      retire t c n;
      if (not t.flags.cf) && not t.flags.zf then t.pc <- target

let compile ~at (i : Insn.t) len : op =
  let n = at + len and c = Cost.insn i in
  match i with
  | Insn.Nop -> fun t -> retire t c n
  | Halt ->
    let st = Fault (Halted at) in
    fun t -> retire t c n; t.status <- st
  | Mov (rd, Reg rs) ->
    let rd = Reg.index rd and rs = Reg.index rs in
    fun t -> retire t c n; rset t rd (rget t rs)
  | Mov (rd, Imm v) ->
    let rd = Reg.index rd in
    fun t -> retire t c n; rset t rd v
  | Lea (rd, m) ->
    let rd = Reg.index rd and ea = compile_addr ~next_pc:n m in
    fun t -> retire t c n; rset t rd (ea t)
  | Load (w, rd, m) -> (
    let rd = Reg.index rd and ea = compile_addr ~next_pc:n m in
    match w with
    | Insn.W1 -> fun t -> retire t c n; rset t rd (Mem.read8 t.mem (ea t))
    | W2 -> fun t -> retire t c n; rset t rd (Mem.read16 t.mem (ea t))
    | W4 -> fun t -> retire t c n; rset t rd (Mem.read32 t.mem (ea t)))
  | Store (w, m, Reg rs) -> (
    let rs = Reg.index rs and ea = compile_addr ~next_pc:n m in
    match w with
    | Insn.W1 -> fun t -> retire t c n; write8 t (ea t) (rget t rs)
    | W2 -> fun t -> retire t c n; write16 t (ea t) (rget t rs)
    | W4 -> fun t -> retire t c n; write32 t (ea t) (rget t rs))
  | Store (w, m, Imm v) -> (
    let ea = compile_addr ~next_pc:n m in
    match w with
    | Insn.W1 -> fun t -> retire t c n; write8 t (ea t) v
    | W2 -> fun t -> retire t c n; write16 t (ea t) v
    | W4 -> fun t -> retire t c n; write32 t (ea t) v)
  | Binop (op, rd, Reg rs) -> binop_reg ~c ~n op (Reg.index rd) (Reg.index rs)
  | Binop (op, rd, Imm b) -> binop_imm ~c ~n op (Reg.index rd) b
  | Neg r ->
    let r = Reg.index r in
    fun t ->
      retire t c n;
      let a = rget t r in
      let v = Word.neg a in
      rset t r v;
      flags_sub t 0 a v
  | Not r ->
    (* x86 NOT does not affect flags *)
    let r = Reg.index r in
    fun t -> retire t c n; rset t r (Word.lognot (rget t r))
  | Cmp (ra, Reg rb) ->
    let ra = Reg.index ra and rb = Reg.index rb in
    fun t ->
      retire t c n;
      let a = rget t ra and b = rget t rb in
      flags_sub t a b (Word.sub a b)
  | Cmp (ra, Imm b) ->
    let ra = Reg.index ra in
    fun t ->
      retire t c n;
      let a = rget t ra in
      flags_sub t a b (Word.sub a b)
  | Test (ra, Reg rb) ->
    let ra = Reg.index ra and rb = Reg.index rb in
    fun t ->
      retire t c n;
      Flags.set_logic t.flags ~result:(Word.logand (rget t ra) (rget t rb))
  | Test (ra, Imm b) ->
    let ra = Reg.index ra in
    fun t ->
      retire t c n;
      Flags.set_logic t.flags ~result:(Word.logand (rget t ra) b)
  | Push (Reg r) ->
    let r = Reg.index r in
    fun t -> retire t c n; push t (rget t r)
  | Push (Imm v) -> fun t -> retire t c n; push t v
  | Pop rd ->
    let rd = Reg.index rd in
    fun t ->
      retire t c n;
      let v = pop t in
      rset t rd v
  | Jmp target -> fun t -> retire t c n; t.pc <- target
  | Jcc (cond, target) -> jcc ~c ~n cond target
  | Call target ->
    fun t ->
      retire t c n;
      push t n;
      t.pc <- target
  | Jmp_ind _ | Call_ind _ -> (
    match (compile_target ~next_pc:n i, i) with
    | None, _ ->
      let st = Fault (Decode_fault at) in
      fun t -> retire t c n; t.status <- st
    | Some target, Call_ind _ ->
      fun t ->
        retire t c n;
        let pc = target t in
        push t n;
        t.pc <- pc
    | Some target, _ -> fun t -> retire t c n; t.pc <- target t)
  | Ret -> fun t -> retire t c n; t.pc <- pop t
  | Load_canary rd ->
    let rd = Reg.index rd in
    fun t -> retire t c n; rset t rd t.canary
  | Syscall num -> fun t -> retire t c n; do_syscall t num

let syscall = do_syscall

(* ---- the decode table ---- *)

(* The machine's [instrument] wraps the op here, once per decode. *)
let entry t addr (i, len) =
  let op = compile ~at:addr i len in
  let op = match t.instrument with None -> op | Some f -> f ~at:addr i len op in
  { d_insn = i; d_len = len; d_op = op }

(* An instruction is decoded straight from its page's bytes, unless it
   starts within [Decode.max_len] bytes of the page's end: then from a
   copy of the bytes that follow, read across the page (or the top of
   the address space) as every other access reads them. *)
let decode t addr =
  let a = addr land Word.mask in
  let off = a land (Mem.page_size - 1) in
  let v =
    if off <= Mem.page_size - Decode.max_len then
      Decode.instr (Mem.page t.mem a) ~pos:off ~lim:Mem.page_size ~at:addr
    else begin
      let b = Bytes.create Decode.max_len in
      for k = 0 to Decode.max_len - 1 do
        Bytes.unsafe_set b k (Char.unsafe_chr (Mem.read8 t.mem (a + k)))
      done;
      Decode.instr b ~pos:0 ~lim:Decode.max_len ~at:addr
    end
  in
  match v with
  | Some ((_, len) as v) ->
    Mem.mark_code t.mem addr len;
    Some (entry t addr v)
  | None -> None

(* Insert (or replace) the entry at [addr] and empty its decode-front
   slot; [run] fills the slot from the table on the next hit. *)
let insert t addr d =
  Addr_table.set t.decode_table addr d;
  unfront t addr

let cache_decoded t addr ((_, len) as v) =
  Mem.mark_code t.mem addr len;
  insert t addr (entry t addr v)

(* Decode and insert, replacing a [seen] marker. *)
let fill t addr =
  match decode t addr with
  | Some d as fresh ->
    insert t addr d;
    fresh
  | None -> None

let fetch t addr =
  let d = Addr_table.find t.decode_table addr in
  if d != no_decoded && not (is_seen d) then Some d else fill t addr

let decoded_spans t =
  List.rev
    (Addr_table.fold
       (fun a d acc -> if is_seen d then acc else (a, d.d_len) :: acc)
       t.decode_table [])

(* ---- execution ---- *)

let default_fuel = 200_000_000

let is_running t =
  match t.status with Running -> true | Exited _ | Fault _ | Aborted _ -> false

(* A retired instruction costs a front probe (two array loads and a
   compare) and a call to its compiled op.  A front miss probes the
   decode table once and refills the slot from a kept entry.  An
   address's first execution runs a fresh decode, leaves [seen] behind
   and the decode in its young slot; its second keeps the young decode,
   or decodes again if the slot has moved on.  Most of the code of a
   cold run executes once, so its decodes die young. *)
let run ?(fuel = default_fuel) t =
  let budget = t.icount + fuel in
  let tags = t.front_tags and ops = t.front_ops and table = t.decode_table in
  while is_running t do
    if t.icount >= budget then t.status <- Fault Out_of_fuel
    else if t.pc = sentinel then advance_phase t
    else
      let pc = t.pc in
      let s = pc land front_mask in
      if Array.unsafe_get tags s = pc then (Array.unsafe_get ops s) t
      else
        let d = Addr_table.find table pc in
        if d == no_decoded then
          match decode t pc with
          | Some d ->
            Addr_table.set table pc seen.(d.d_len);
            let y = pc land young_mask in
            Array.unsafe_set t.young_tags y pc;
            Array.unsafe_set t.young y d;
            d.d_op t
          | None -> t.status <- Fault (Decode_fault pc)
        else if not (is_seen d) then begin
          Array.unsafe_set tags s pc;
          Array.unsafe_set ops s d.d_op;
          d.d_op t
        end
        else
          let y = pc land young_mask in
          if Array.unsafe_get t.young_tags y = pc then begin
            let d = Array.unsafe_get t.young y in
            insert t pc d;
            d.d_op t
          end
          else
            match fill t pc with
            | Some d -> d.d_op t
            | None -> t.status <- Fault (Decode_fault pc)
  done

let output t = Buffer.contents t.out

type result = {
  r_status : status;
  r_cycles : int;
  r_icount : int;
  r_output : string;
  r_violations : violation list;
}

let result t =
  {
    r_status = t.status;
    r_cycles = t.cycles;
    r_icount = t.icount;
    r_output = output t;
    r_violations = List.rev t.violations;
  }

let run_native ?fuel ~registry ~main () =
  let t = make ~registry () in
  boot t ~main;
  if t.status = Running then run ?fuel t;
  result t

let pp_status ppf = function
  | Running -> Format.pp_print_string ppf "running"
  | Exited n -> Format.fprintf ppf "exited(%d)" n
  | Fault (Decode_fault a) -> Format.fprintf ppf "decode fault at %a" Word.pp a
  | Fault (Halted a) -> Format.fprintf ppf "halted at %a" Word.pp a
  | Fault Out_of_fuel -> Format.pp_print_string ppf "out of fuel"
  | Fault (Load_fault e) -> Format.fprintf ppf "load fault: %s" e
  | Aborted why -> Format.fprintf ppf "aborted: %s" why
