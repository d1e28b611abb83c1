(** JTaint: dynamic taint tracking on the Janitizer framework.

    A third security technique built on the same two-pass plugin
    interface as JASan and JCFI, demonstrating the dataflow-tracing
    building block of section 3.3.3.  External input (the [read_int]
    syscall) is the taint source; taint propagates through register moves,
    arithmetic, and memory at byte granularity; the policy flags any
    indirect control transfer whose target value is tainted — the classic
    control-flow-hijack-via-input detector.

    Hybrid split: the static pass marks instructions that cannot move
    data (compares, direct branches, nops) with no-op rules so the
    dynamic modifier leaves them untouched, and attaches propagation
    handlers only where dataflow can happen; blocks the static analyzer
    never saw fall back to instrumenting every instruction. *)

module Rt : sig
  type t

  val tainted_bytes : t -> int
  (** Read only by test_taint "policy" "through memory". *)

  val alerts : t -> int
  (** Number of tainted-target transfers flagged (also reported as
      ["tainted-target"] VM violations). *)
end

val create : unit -> Janitizer.Tool.t * Rt.t
(** One instance per run. *)

module Ids : sig
  val propagate : int
  val check_target : int
  val source : int
end
