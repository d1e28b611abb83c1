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
  decode_cache : (int, Insn.t * int) Hashtbl.t;
  decode_pages : (int, int list ref) Hashtbl.t;
  mutable flush_listeners : (int -> int -> unit) list;
  handles : (int, Jt_loader.Loader.loaded) Hashtbl.t;
  mutable next_handle : int;
  mutable input : int list;
  syscall_hooks : (int, t -> unit) Hashtbl.t;
}

exception Security_abort of string

let sentinel = 0xFFFF_FF00
let stack_top = 0x7F00_0000
let jit_base = 0x6000_0000
let jit_region = (jit_base, 0x7000_0000)

let make ~registry =
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
    (* small to start and grown on demand: with thousands of tiny
       programs each booting a VM, the fixed cost per VM shows *)
    decode_cache = Hashtbl.create 256;
    decode_pages = Hashtbl.create 256;
    flush_listeners = [];
    handles = Hashtbl.create 8;
    next_handle = 1;
    input = [];
    syscall_hooks = Hashtbl.create 4;
  }

let set_input t values = t.input <- values

let set_syscall_hook t n f = Hashtbl.replace t.syscall_hooks n f

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

let push t v =
  let sp = Word.sub (get t Reg.sp) 4 in
  set t Reg.sp sp;
  Jt_mem.Memory.write32 t.mem sp v

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

(* The decode cache is bucketed by 4KiB page: every entry is registered
   under each page its byte span [addr, addr+len) overlaps, so a range
   invalidation only visits the affected pages instead of folding over
   the whole table. *)
let page_shift = 12

let cache_decoded t addr ((_, len) as v) =
  Hashtbl.replace t.decode_cache addr v;
  let span = max len 1 in
  for p = addr asr page_shift to (addr + span - 1) asr page_shift do
    let b =
      match Hashtbl.find_opt t.decode_pages p with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.replace t.decode_pages p b;
        b
    in
    if not (List.mem addr !b) then b := addr :: !b
  done

let fetch t addr =
  match Hashtbl.find_opt t.decode_cache addr with
  | Some v -> Some v
  | None -> (
    match Decode.instr ~read:(fun a -> Jt_mem.Memory.read8 t.mem a) ~at:addr with
    | Some v ->
      cache_decoded t addr v;
      Some v
    | None -> None)

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

(* ---- operand evaluation ---- *)

let eval_operand t = function Insn.Reg r -> get t r | Insn.Imm v -> v

let eval_mem t ~next_pc (m : Insn.mem) =
  let base =
    match m.base with
    | Some (Insn.Breg r) -> get t r
    | Some Insn.Bpc -> next_pc
    | None -> 0
  in
  let index = match m.index with Some r -> get t r * m.scale | None -> 0 in
  Word.of_int (base + index + m.disp)

(* ---- flag computation ---- *)

let sign w = w land 0x8000_0000 <> 0

let flags_add t a b r =
  Flags.set_arith t.flags ~result:r
    ~carry:(a + b > Word.mask)
    ~overflow:(sign a = sign b && sign r <> sign a)

let flags_sub t a b r =
  Flags.set_arith t.flags ~result:r ~carry:(a < b)
    ~overflow:(sign a <> sign b && sign r <> sign a)

let eval_cond t (c : Insn.cond) =
  let f = t.flags in
  match c with
  | Insn.Eq -> f.zf
  | Ne -> not f.zf
  | Lt -> f.sf <> f.of_
  | Ge -> f.sf = f.of_
  | Le -> f.zf || f.sf <> f.of_
  | Gt -> (not f.zf) && f.sf = f.of_
  | Ult -> f.cf
  | Uge -> not f.cf
  | Ule -> f.cf || f.zf
  | Ugt -> (not f.cf) && not f.zf

(* ---- syscalls ---- *)

(* Invalidate every cached instruction whose byte span [k, k+len)
   actually overlaps [start, start+len), visiting only the page buckets
   the flushed range touches.  (The old heuristic dropped entries with
   [k >= start - 16], which both over-invalidated nearby non-overlapping
   entries and would let an instruction longer than 16 bytes survive with
   stale bytes.) *)
let flush_range t start len =
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.emit (Jt_trace.Trace.Flush_range { start; len });
  (if len > 0 then begin
     let c = Jt_metrics.Metrics.Counters.current () in
     let doomed = ref [] in
     for p = start asr page_shift to (start + len - 1) asr page_shift do
       match Hashtbl.find_opt t.decode_pages p with
       | None -> ()
       | Some b ->
         List.iter
           (fun k ->
             c.c_flush_visits <- c.c_flush_visits + 1;
             match Hashtbl.find_opt t.decode_cache k with
             | Some (_, ilen) when k < start + len && k + max ilen 1 > start ->
               doomed := (k, ilen) :: !doomed
             | Some _ | None -> ())
           !b
     done;
     List.iter
       (fun (k, ilen) ->
         (* an entry spanning two flushed pages appears twice *)
         if Hashtbl.mem t.decode_cache k then begin
           c.c_flush_drops <- c.c_flush_drops + 1;
           Hashtbl.remove t.decode_cache k;
           for q = k asr page_shift to (k + max ilen 1 - 1) asr page_shift do
             match Hashtbl.find_opt t.decode_pages q with
             | Some b -> b := List.filter (fun a -> a <> k) !b
             | None -> ()
           done
         end)
       !doomed
   end);
  List.iter (fun f -> f start len) t.flush_listeners

let rec do_syscall t n =
  match Hashtbl.find_opt t.syscall_hooks n with
  | Some f -> f t
  | None -> do_builtin_syscall t n

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
    | target -> Jt_mem.Memory.write32 t.mem sp target
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
      Jt_mem.Memory.write8 t.mem (addr + i) 0
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
        Jt_mem.Memory.write8 t.mem (fresh + i) (Jt_mem.Memory.read8 t.mem (a0 + i))
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

(* ---- execution ---- *)

let step_decoded t ~at (i : Insn.t) len =
  let next_pc = at + len in
  t.icount <- t.icount + 1;
  t.cycles <- t.cycles + Cost.insn i;
  t.pc <- next_pc;
  match i with
  | Insn.Nop -> ()
  | Halt -> t.status <- Fault (Halted at)
  | Mov (rd, src) -> set t rd (eval_operand t src)
  | Lea (rd, m) -> set t rd (eval_mem t ~next_pc m)
  | Load (w, rd, m) ->
    let a = eval_mem t ~next_pc m in
    set t rd (Jt_mem.Memory.read t.mem a ~width:(Insn.width_bytes w))
  | Store (w, m, src) ->
    let a = eval_mem t ~next_pc m in
    Jt_mem.Memory.write t.mem a ~width:(Insn.width_bytes w) (eval_operand t src)
  | Binop (op, rd, src) -> (
    let a = get t rd and b = eval_operand t src in
    match op with
    | Insn.Add ->
      let r = Word.add a b in
      set t rd r;
      flags_add t a b r
    | Sub ->
      let r = Word.sub a b in
      set t rd r;
      flags_sub t a b r
    | And ->
      let r = Word.logand a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Or ->
      let r = Word.logor a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Xor ->
      let r = Word.logxor a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Shl ->
      let r = Word.shl a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Shr ->
      let r = Word.shr a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Sar ->
      let r = Word.sar a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r
    | Mul ->
      let r = Word.mul a b in
      set t rd r;
      Flags.set_logic t.flags ~result:r)
  | Neg r ->
    let a = get t r in
    let v = Word.neg a in
    set t r v;
    flags_sub t 0 a v
  | Not r ->
    set t r (Word.lognot (get t r))
    (* x86 NOT does not affect flags *)
  | Cmp (ra, src) ->
    let a = get t ra and b = eval_operand t src in
    flags_sub t a b (Word.sub a b)
  | Test (ra, src) ->
    let a = get t ra and b = eval_operand t src in
    Flags.set_logic t.flags ~result:(Word.logand a b)
  | Push src -> push t (eval_operand t src)
  | Pop rd -> set t rd (pop t)
  | Jmp target -> t.pc <- target
  | Jcc (c, target) -> if eval_cond t c then t.pc <- target
  | Jmp_ind (Some r, _) -> t.pc <- get t r
  | Jmp_ind (None, Some m) -> t.pc <- Jt_mem.Memory.read32 t.mem (eval_mem t ~next_pc m)
  | Jmp_ind (None, None) -> t.status <- Fault (Decode_fault at)
  | Call target ->
    push t next_pc;
    t.pc <- target
  | Call_ind (Some r, _) ->
    push t next_pc;
    t.pc <- get t r
  | Call_ind (None, Some m) ->
    let target = Jt_mem.Memory.read32 t.mem (eval_mem t ~next_pc m) in
    push t next_pc;
    t.pc <- target
  | Call_ind (None, None) -> t.status <- Fault (Decode_fault at)
  | Ret -> t.pc <- pop t
  | Load_canary rd -> set t rd t.canary
  | Syscall n -> do_syscall t n

let default_fuel = 200_000_000

let is_running t =
  match t.status with Running -> true | Exited _ | Fault _ | Aborted _ -> false

(* A decode-cache hit is a [Hashtbl.find] that allocates nothing; only a
   miss goes through [fetch] and its option. *)
let run ?(fuel = default_fuel) t =
  let budget = t.icount + fuel in
  while is_running t do
    if t.icount >= budget then t.status <- Fault Out_of_fuel
    else if t.pc = sentinel then advance_phase t
    else
      let pc = t.pc in
      match Hashtbl.find t.decode_cache pc with
      | i, len -> step_decoded t ~at:pc i len
      | exception Not_found -> (
        match fetch t pc with
        | Some (i, len) -> step_decoded t ~at:pc i len
        | None -> t.status <- Fault (Decode_fault pc))
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
  let t = make ~registry in
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
