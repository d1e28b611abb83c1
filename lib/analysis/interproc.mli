(** Inter-procedural register summaries (section 4.1.2).

    Calling-convention-based liveness is unsound when compilers (ipa-ra)
    or hand-written assembly break the convention — the callee may use
    caller-saved registers it "shouldn't", or fail to restore
    callee-saved ones.  For such modules the paper extends the analysis
    inter-procedurally; here that takes the form of per-function
    summaries: the registers a call may {e modify} and the registers it
    may {e read}, computed as a fixpoint over the call graph.

    Syscalls are summarized precisely — the kernel clobbers only [r0]
    (the result register) and reads at most [r0]-[r2] — instead of
    all-regs.  Indirect calls use the join of their resolved targets'
    summaries when the caller supplies a [resolve] function (in
    practice backed by {!Cpa}); unresolved indirect calls and calls
    leaving the module still touch everything.

    Each summary also carries a {e shadow-state barrier} bit: whether
    the callee may transitively reach a syscall (allocator events are
    syscall-gated) or touch the canary secret — the two ways the
    sanitizer shadow state can change across a call.  JASan's
    cross-call claim elision is legal only through barrier-free
    callees. *)

type summary = {
  ip_clobbers : int;  (** registers possibly written, as a bit mask *)
  ip_reads : int;  (** registers possibly read *)
  ip_barrier : bool;
      (** may transitively execute a syscall or read the canary secret,
          or reaches unknown code — shadow state may change *)
}

val summaries :
  ?resolve:(int -> int list option) -> Jt_cfg.Cfg.t -> (int, summary) Hashtbl.t
(** Function entry -> summary.  [resolve site] supplies the resolved
    target entries of the indirect call at instruction address [site],
    or [None] for Top (the default for every site when omitted). *)

val everything : summary
val join : summary -> summary -> summary
