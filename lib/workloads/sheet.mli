(** Character sheets for the 27 SPEC CPU2006-like workloads.

    Each sheet captures the traits of one benchmark that the paper's
    evaluation is sensitive to: language (which system libraries it
    links, and hence which baselines refuse it), memory-access density,
    indirect-branch density, loop structure, dynamic-code behaviour
    (dlopen'd solvers, computed gotos the static analyzer misses), and
    the tool-breakage flags reported in the paper (Lockdown fails on
    omnetpp and dealII; BinCFI-rewritten gamess and zeusmp do not run).
    The traits are tuned from the public characterizations of SPEC
    CPU2006, not measured from the originals. *)

type lang = C | Cxx | Fortran | Mixed_cf

val lang_name : lang -> string
(** ["C"], ["C++"], ["Fortran"] or ["C/Fortran"]: the one label the CLI
    and the bench reports print for a workload's language. *)

type t = {
  s_name : string;
  s_lang : lang;
  s_units : int;  (** driver iterations *)
  s_elems : int;  (** working-array elements *)
  s_stream_loops : int;  (** SCEV-friendly streaming passes per unit *)
  s_chase_steps : int;  (** pointer-chase steps per unit (non-SCEV) *)
  s_alu_calls : int;  (** libm scalar calls per unit *)
  s_ind_calls : int;  (** dispatch-table calls per unit *)
  s_switches : int;  (** jump-table dispatches per unit *)
  s_call_depth : int;  (** canary-frame call-chain depth *)
  s_mallocs : int;  (** allocation churn per unit *)
  s_memlib_calls : int;  (** libc memcpy/copy_words calls per unit *)
  s_qsort : bool;  (** stack-passed callback into libc (Lockdown FP) *)
  s_dlopen_solver : int;
      (** number of solver stages in a dlopen'd plugin; 0 = none.
          cactusADM's large value makes most executed blocks dynamic *)
  s_computed_goto : int;  (** labels reachable only via a data table *)
  s_code_bloat : int;  (** extra once-run phase functions (code size) *)
  s_literal_pool : int;  (** bytes of data embedded in code *)
  s_fails_lockdown : bool;
  s_stencil : int;  (** 2D five-point stencil passes per unit *)
  s_hist : int;  (** histogram passes (data-dependent addressing) *)
  s_strproc : int;  (** byte-granularity string-processing passes *)
  s_recurse : int;  (** recursion depth through canary frames; 0 = none *)
}

val all : t list
(** The 27 workloads, in the paper's figure order. *)

val find : string -> t
(** @raise Not_found for unknown benchmark names. *)

val c_benchmarks : t list
(** The pure-C subset RetroWrite supports. *)
