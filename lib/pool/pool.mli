(** Run independent jobs on worker domains (DESIGN.md §10).

    The evaluation harness uses it to run *independent* simulator jobs
    (one workload, one configuration) concurrently: each worker is a
    real [Domain], and the framework's per-run sinks
    ([Jt_metrics.Metrics.Counters], [Jt_trace.Trace]) are domain-local,
    so jobs never observe each other's counters or events.  Parallelism
    is a wall-clock optimization only — a job computes exactly what it
    would compute on the caller's domain.

    Jobs must not share mutable state with each other unless they
    synchronize it themselves; everything the simulator touches per run
    (VM, engine, tool instances) is created inside the job. *)

val run : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run ~jobs f xs] applies [f] to every element on
    [min jobs (List.length xs)] fresh worker domains, never on the
    caller's, and returns the results in input order.  If any job
    raised, the leftmost failure is re-raised with its backtrace — after
    every job has finished, so no work is abandoned mid-flight.  Raises
    [Invalid_argument] when [jobs < 1]. *)
