(** Result aggregation and table rendering for the benchmark harness. *)

val geomean : float list -> float
(** Geometric mean; 0 for an empty list.  Non-positive values would
    poison the mean through [log], so they are skipped (with a warning on
    stderr); 0 if nothing positive remains. *)

(** JASan's run-time check and elision counts, the events no engine
    record already counts.  Dispatch work is counted once, in
    [Jt_dbt.Dbt.stats]; IR-store traffic once, in [Jt_ir.Store.stats];
    static elisions once, in each rule file's [elide_dom] stat.
    They measure what a run did, not simulated cycles, so resetting or
    reading them never perturbs an experiment.

    The counters are {e domain-local} ([Domain.DLS]): every domain counts
    into its own instance, so concurrent driver runs on a [Jt_pool] never
    corrupt each other.  A pool job that wants its numbers must read
    them on its own domain (inside the job) and return them. *)
module Counters : sig
  type t = {
    mutable c_san_checks : int;
        (** JASan shadow-memory checks actually executed at run time *)
    mutable c_san_trace_elide_dom : int;
        (** dynamic check instances elided by the trace-spine
            dominating-check pass *)
    mutable c_san_trace_elide_canary : int;
        (** always 0: nothing writes it (the trace layer never drops a
            canary unpoison); kept for readers that sum every trace
            reason *)
    mutable c_san_trace_elide_streak : int;
        (** dynamic check instances elided by the steady-state (streak)
            trace plans: availability carried across the trace's own
            back-edge *)
    mutable c_san_trace_elide_ind : int;
        (** dynamic check instances elided by the trace induction-range
            guard: affine accesses covered by the endpoint check run
            once at streak onset *)
  }

  val current : unit -> t
  (** The calling domain's counters (created zeroed on first use). *)

  val reset : unit -> unit
  (** Zero the calling domain's counters. *)

  val snapshot : unit -> (string * int) list
  (** The calling domain's current values as name/value pairs, in a
      stable order. *)
end

type cell =
  | Value of float
  | Fail of string  (** tool refused or crashed on this benchmark (✗) *)

type table = {
  t_title : string;
  t_unit : string;  (** e.g. "slowdown vs native", "AIR %" *)
  t_cols : string list;
  t_rows : (string * cell list) list;  (** benchmark name, one cell per column *)
}

val failure_reasons : table -> string list
(** One ["row/column: reason"] line per failed cell, in row then column
    order; cells failed with the placeholder ["-"] (no measurement, not
    a refusal) are skipped. *)

val print : table -> unit
(** Render to stdout with geomean (and geomean-x when columns differ in
    coverage) appended, then the {!failure_reasons}: a failed cell
    prints as [x] in its row. *)

val print_kv : string -> (string * string) list -> unit
(** Simple key/value block (for the Figure 10 style tables). *)
