(** Average Indirect-target Reduction (AIR) metrics.

    AIR = 100 * (1 - mean_i(|T_i|) / S), where T_i is the set of targets a
    protected indirect control transfer i may still reach and S the number
    of addressable targets with no protection (all code bytes).  Following
    the paper, the metric is computed two ways: dynamically — over the
    indirect CTIs actually executed by the program, measured at
    termination, to compare like-for-like with Lockdown (Figure 12) — and
    statically over all indirect CTIs, matching BinCFI's calculation
    (Figure 13). *)

val air : sizes:float list -> total:float -> float
(** The AIR formula, in percent.  100.0 when there are no sites. *)

val dynamic : ?per_site:bool -> Jcfi.Rt.t -> float
(** Dynamic AIR of a finished JCFI run.  [per_site] (default false)
    sizes executed indirect-call sites by their resolved provenance sets
    where the installed tables carry one — the policy the runtime
    actually enforced — instead of the any-entry baseline; sites with no
    set count identically under both. *)

val dynamic_breakdown : ?per_site:bool -> Jcfi.Rt.t -> float * float
(** [(forward, backward)] AIR computed separately over the executed
    indirect calls/jumps and the executed returns.  The backward figure
    is essentially 100% for any shadow-stack scheme (|T| = 1), matching
    the paper's remark that JCFI and Lockdown tie on backward edges.
    Read only by test_props "air" "breakdown identity". *)

val static_jcfi : Jt_obj.Objfile.t list -> float
(** Static AIR of JCFI's any-entry policy over every indirect CTI of the
    given modules (no execution). *)

type static_report = {
  sr_air : float;  (** all indirect CTIs *)
  sr_fwd : float;  (** indirect calls and jumps only *)
  sr_bwd : float;  (** returns only (always 100 with a shadow stack) *)
  sr_icalls : int;  (** indirect-call sites counted *)
  sr_resolved : int;  (** of which CPA resolved to a finite set *)
  sr_hist : (int * int) list;
      (** resolved-set size -> site count, sorted by size *)
}

val static_jcfi_report : ?per_site:bool -> Jt_obj.Objfile.t list -> static_report
(** The static AIR calculation with its forward/backward split and the
    per-site target-set statistics.  With [per_site] (default false)
    indirect-call sites resolved by the provenance analysis are sized by
    their sets; Top sites and [per_site:false] use the any-entry count.
    [static_jcfi] is [(static_jcfi_report ms).sr_air]. *)

(** Per-site target-set sizes under JCFI's policy, exposed so baseline
    policies can be computed side by side. *)
val total_code_bytes : Jt_obj.Objfile.t list -> float
