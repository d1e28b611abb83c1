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

val static_air : Jt_obj.Objfile.t list -> float
(** Static AIR under BinCFI's policy (Figure 13). *)
