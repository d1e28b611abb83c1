(** The simulated machine.

    A VM owns the memory, registers, flags, allocator and loader of one
    process, plus the cycle and instruction counters every experiment is
    measured with.  {!compile} is the one home of instruction semantics
    and {!run} the one interpreter loop: it executes a program directly
    (the "native" baseline), and the interpretive baselines run through
    it too, their checks wrapped around each compiled op at decode time
    by [make]'s [instrument].  A dynamic binary modifier drives
    execution itself, through {!decode}, the compiled ops it returns and
    {!advance_phase}. *)

open Jt_isa

type fault =
  | Decode_fault of int  (** undecodable bytes reached by the PC *)
  | Halted of int  (** a [halt] instruction (abnormal stop) at this PC *)
  | Out_of_fuel
  | Load_fault of string  (** loader/dlopen failure during execution *)

type status =
  | Running
  | Exited of int
  | Fault of fault
  | Aborted of string  (** stopped by a security tool's abort policy *)

type violation = { v_kind : string; v_addr : int; v_pc : int }
(** A security violation reported by an instrumentation tool.  Tools run
    in "recover" mode: violations are recorded and execution continues,
    like ASan's [halt_on_error=0], so that test cases with several bugs
    report each one. *)

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
  mutable violations : violation list;  (** newest first *)
  mutable phases : int list;
  mutable jit_next : int;
  decode_table : decoded Addr_table.t;
      (** The decode table: the instructions {!run} has executed at
          least twice (and those {!fetch} decoded), by address, plus a
          marker at each address {!run} has executed once, shared by
          all instructions of its length.
          {!flush_range}, and a guest write into decoded code, drop the
          entries whose byte span overlaps their range. *)
  front_tags : int array;
  front_ops : op array;
      (** The decode front: a 256-slot direct-mapped cache of compiled
          ops, indexed by the low PC bits and read by {!run} before
          [decode_table].  Slot [s] holds the op of address
          [front_tags.(s)], or is empty when that tag is [-1];
          {!cache_decoded} and {!flush_range} keep it coherent with
          [decode_table]. *)
  young_tags : int array;
  young : decoded array;
      (** The young decodes: a 256-slot direct-mapped cache, indexed
          like the front, of the decode an address's first execution in
          {!run} ran.  Its second execution keeps that decode if the
          slot still holds it, and decodes again if not.  A slot is read
          only while [decode_table] holds the address's marker, which
          spans the instruction: a write into its bytes drops the
          marker, and the next execution is a first one again. *)
  mutable flush_listeners : (int -> int -> unit) list;
  handles : (int, Jt_loader.Loader.loaded) Hashtbl.t;
  mutable next_handle : int;  (** monotonic dlopen handle allocator *)
  mutable input : int list;  (** remaining external input (read_int) *)
  mutable syscall_hooks : (t -> unit) array;
      (** per-number overrides consulted before the built-in syscall
          chain, one slot per syscall byte; see {!set_syscall_hook} *)
  instrument : (at:int -> Insn.t -> int -> op -> op) option;
      (** see {!make} *)
}

and op = t -> unit
(** One instruction compiled by {!compile}: running it retires the
    instruction in the given machine. *)

and decoded = { d_insn : Insn.t; d_len : int; d_op : op }
(** A decode-table entry: the instruction, its length and its op. *)

val set_input : t -> int list -> unit
(** Provide the program's external input stream, consumed by the
    [read_int] syscall.  Read only by test_lifecycle "input" "read_int"
    and test_taint. *)

val set_syscall_hook : t -> int -> (t -> unit) -> unit
(** Install (or replace) the handler for syscall number [n], a byte
    ([Invalid_argument] otherwise).  Hooks are
    consulted before the built-in chain — including its unknown-syscall
    fallback that clobbers [r0] — so statically emitted instrumentation
    ([Sysno.emit_site], [Sysno.emit_pin]) can give its encodings meaning
    without the VM knowing about them.  The hook runs at handler time:
    the PC has already advanced past the [syscall] instruction and its
    native cost is charged, so a hook may adjust both (set [pc], call
    {!charge} with a delta). *)

val make :
  ?instrument:(at:int -> Insn.t -> int -> op -> op) ->
  registry:Jt_obj.Objfile.t list ->
  unit ->
  t
(** Create a VM with an empty process.  Track per-module tables on its
    loader ([Jt_loader.Loader.track vm.loader]) before calling {!boot}
    to see the startup modules.

    [instrument ~at i len op] is applied once per {!decode}, when the
    instruction [i] (of length [len], at [at]) is compiled; the op it
    returns is what the decode table and {!run}'s decode front hold, so
    {!run} does no per-instruction work for it.  {!run} decodes an
    address at its first and at its second execution, and again after
    {!flush_range}, a guest write into the instruction or
    {!cache_decoded}, so the wrapper must be a function of the
    instruction, its address and the code the loader mapped there: at
    wrap time it may fix only what depends on those (its kind, width,
    {!compile_addr}, {!compile_target}, tables the loader built for the
    module), must not read other machine state, and must have no effect
    of its own.  Everything else is read inside the returned op, which
    should run its checks before calling [op] so they see the
    pre-instruction PC and registers.  A DBT never sets it: it wraps its
    own blocks. *)

val boot : t -> main:string -> unit
(** Load the main module and its dependency closure, set up the stack,
    and queue the execution phases: each startup module's [_init], then
    the entry point.  The PC is left at the phase sentinel; {!run} (or a
    DBT driving the VM) starts from there. *)

val sentinel : int
(** The magic return address separating phases.  When the PC reaches it,
    call {!advance_phase}. *)

val jit_region : int * int
(** [(lo, hi)] bounds of the address range handed out by [mmap_code]:
    anything in it is dynamically generated code. *)

val advance_phase : t -> unit
(** Enter the next queued phase, or mark the program exited (with [r0])
    when none remain. *)

val get : t -> Reg.t -> int
val set : t -> Reg.t -> int -> unit

val compile : at:int -> Insn.t -> int -> op
(** [compile ~at i len] is the semantics of instruction [i], of length
    [len], located at [at].  Everything that does not depend on machine
    state (addressing-mode shape, next PC, native cost, operand
    registers and immediates) is fixed here, once.  Running the op adds
    one to [icount], charges the native cost, sets [pc] to [at + len]
    and then performs the effect (a taken branch overwrites [pc]).  It
    raises nothing: faults set {!status}. *)

val compile_addr : next_pc:int -> Insn.mem -> t -> int
(** The addressing mode of a memory operand, compiled the same way:
    [compile_addr ~next_pc m t] is the effective address of [m] in
    machine [t] ([next_pc], the address of the following instruction,
    is the base of a PC-relative operand).  Instrumentation that
    re-derives an access's address resolves the operand once with
    this. *)

val compile_target : next_pc:int -> Insn.t -> (t -> int) option
(** The target of an indirect call or jump ([Call_ind]/[Jmp_ind] with an
    operand), compiled once: in a machine about to execute it, the
    reader returns the PC the instruction transfers to.  [None] for any
    other instruction.  {!compile} uses it for both transfers, and it is
    the one reader CFI instrumentation checks targets with. *)

val decode : t -> int -> decoded option
(** Decode and compile the instruction at an address, wrapped by the
    machine's [instrument].  It records nothing but the code marks of
    the 64-byte chunks the instruction spans ({!Jt_mem.Memory.mark_code}):
    from then on a guest write into those chunks (a store, a [push] or
    [call], a syscall that writes memory) drops the decode-table entries
    and DBT blocks whose bytes it overwrote, as {!flush_range} does but
    without a trace event and for no cycles.  The bytes are read from
    the address's memory page, or, for an instruction that starts
    within {!Jt_isa.Decode.max_len} bytes of the page's end, from a copy
    of the bytes that follow it across the page boundary or the top of
    the address space.  A DBT builds its blocks through this, so a DBT
    machine's decode table stays empty. *)

val fetch : t -> int -> decoded option
(** {!decode} through the decode table, inserting on a miss (or over a
    [seen] marker).  Only [test_vm] calls it, to read an entry. *)

val cache_decoded : t -> int -> Insn.t * int -> unit
(** Compile a pre-decoded instruction and insert it into the decode
    table, replacing any entry at that address and emptying its
    decode-front slot.  It marks the chunks of the instruction's span as
    {!decode} does, so a guest write into them drops the entry.  Only
    [test_vm] calls it, as its hook for placing an entry. *)

val decoded_spans : t -> (int * int) list
(** The address and length of every kept decode-table entry (not the
    markers of addresses run once), ascending.  Nothing in the program
    reads it: it is the oracle hook through which [test_vm] (the
    flush-range, decode-table, flush-cost and second-execution cases)
    and [test_dbt] ("no decode-table writes") see what the table
    holds. *)

val flush_range : t -> int -> int -> unit
(** Programmatic icache flush: drop every decode-table entry whose byte
    span overlaps [[start, start+len)] and notify flush listeners.
    Addresses wrap modulo 2{^32}: a range past [0xFFFF_FFFF] continues
    at address 0, and an entry whose span does is dropped by a flush of
    either piece.  Its cost grows with the table's allocated leaves, not
    with [len].  The [cache_flush] syscall is routed through this. *)

val syscall : t -> int -> unit
(** Perform system call [n] in the current machine state: its hook if
    one is installed, else the built-in handler.  A compiled [syscall]
    instruction calls this after retiring. *)

val charge : t -> int -> unit
(** Add instrumentation cycles. *)

val report_violation : t -> kind:string -> addr:int -> unit

val on_cache_flush : t -> (int -> int -> unit) -> unit
(** Subscribe to [cache_flush] syscalls and to guest writes into decoded
    code (start, length): a DBT must invalidate affected code-cache
    blocks. *)

val is_running : t -> bool
(** [status = Running], without a polymorphic comparison. *)

val run : ?fuel:int -> t -> unit
(** Interpret until exit or fault ("native" execution).  [fuel] bounds the
    executed instruction count (default 200 million).  An address's
    first execution runs a fresh decode and leaves only a marker in the
    decode table; from its second execution on the entry is kept.  Since
    a write into decoded code drops the entries it overwrote, when an
    entry is built cannot be observed. *)

val output : t -> string
(** The program's output stream so far. *)

(** {1 Convenience} *)

type result = {
  r_status : status;
  r_cycles : int;
  r_icount : int;
  r_output : string;
  r_violations : violation list;  (** oldest first *)
}

val result : t -> result

val run_native : ?fuel:int -> registry:Jt_obj.Objfile.t list -> main:string -> unit -> result
(** Build a fresh VM, boot [main] and interpret it natively. *)

val pp_status : Format.formatter -> status -> unit
