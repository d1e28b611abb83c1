(** A BinCFI-class baseline: static-only CFI via symbolization
    (sections 2.1, 5, 6.2).

    Valid forward targets are the constants found by the sliding-window
    scan that land on instruction boundaries of the (static) disassembly;
    returns may target any call-preceded instruction — no shadow stack.
    Indirect transfers are replaced by address-translation lookups at
    rewrite time, so the run-time overhead is a per-indirect-transfer
    cost with no translation engine underneath.

    Being purely static, code-data ambiguity is fatal: modules whose code
    sections embed too much data (jump tables and literal pools beyond a
    threshold fraction) are mis-disassembled and the rewritten binary is
    refused — the ✗ entries of Figure 9. *)

val data_in_code_threshold : float

(** Why the rewriter refuses a binary. *)
type refusal = Broken_rewrite of string  (** offending module *)

(** What the rewriter derives from one module's static disassembly
    before any run, in link-time addresses.  The disassembly itself is
    not kept: nothing reads it afterwards. *)
type prep = {
  bc_data_in_code : float;
      (** fraction of non-padding code-section bytes the disassembly
          could not decode: embedded data *)
  bc_indirect : int;  (** indirect calls and jumps in the disassembly *)
  bc_returns : int;  (** returns in the disassembly *)
  bc_scan_targets : (int, unit) Hashtbl.t;
      (** valid forward targets: scanned constants on (possibly
          speculative) instruction boundaries, exported functions, PLT
          stubs and lazy entries *)
  bc_ret_targets : (int, unit) Hashtbl.t;  (** call-preceded instructions *)
}

val prepare : Jt_obj.Objfile.t -> prep
(** The module's preparation.  A shared object ([ld.so] included) is
    prepared once per process ({!Jt_ir.Rewrite_cache}); {!applicability},
    {!run} and {!static_air} all read it, and treat it as read-only. *)

val prepare_module : Jt_obj.Objfile.t -> prep
(** The uncached computation behind {!prepare}: the oracle
    [test_rewrite_cache] compares cache hits against. *)

val applicability : registry:Jt_obj.Objfile.t list -> main:string -> refusal option
(** [None] when no module of the closure embeds more than
    {!data_in_code_threshold} of its code bytes as data (bytes static
    disassembly cannot decode). *)

val run :
  ?fuel:int ->
  registry:Jt_obj.Objfile.t list ->
  main:string ->
  unit ->
  (Jt_vm.Vm.result, refusal) result
(** Rewrite and run the program.  Every module of the closure is
    {!prepare}d, so the shared objects it links are disassembled and
    scanned once per process, not once per program. *)

val static_air : Jt_obj.Objfile.t list -> float
(** Static AIR under BinCFI's policy (Figure 13), over the modules'
    {!prepare}d target sets. *)
