(** Differential soundness fuzzer.

    Seeded, deterministic generation of randomized heap/stack workload
    programs with optional injected violations, each run under every
    scheme the repo models — native, Janitizer hybrid, Janitizer
    emitted-static, and the Valgrind / RetroWrite / Lockdown / BinCFI
    baselines — and checked against an oracle in three parts:

    - {b detection shape}: the violation kinds reported by each scheme
      are exactly what the Figure-10 detection matrix predicts for the
      injected bug (e.g. the Valgrind-class baseline misses stack
      smashes; the CFI-only baselines see no memory bug at all;
      RetroWrite refuses non-PIC mains);
    - {b bit-identical observables}: exit status and output equal the
      native run's, benign and injected alike (recover mode — detection
      must never perturb execution);
    - {b exact accounting}: guest icount equals native for every
      translation-based scheme, and
      [icount - sites - pins = native icount] for the emitted binary;
      hybrid and emitted must report the identical (kind, address)
      violation set.

    Everything derives from a [splitmix64] stream per seed: the same
    seed always yields the same program, so a mismatch is a one-line
    reproducer. *)

(** Splitmix64: a tiny, stable, dependency-free PRNG. *)
module Rng : sig
  type t

  val make : int -> t

  val int : t -> int -> int
  (** Uniform in [\[0, n)]. *)

  val bool : t -> bool
end

type inject = Overflow | Underwrite | Uaf | Double_free | Stack_smash

val injections : inject list
val inject_name : inject -> string

val expected_kind : inject -> string
(** The violation kind a shadow-aware scheme must report. *)

type case = {
  fz_seed : int;
  fz_pic : bool;  (** PIC main: the RetroWrite-applicable half *)
  fz_inject : inject option;  (** [None]: benign *)
}

val case_name : case -> string

val cases_of : base_seed:int -> seeds:int -> case list
(** [seeds] consecutive seeds, each contributing one benign case plus
    one per injection kind: [6 * seeds] cases. *)

val build : case -> Jt_obj.Objfile.t
(** The generated workload program (pure function of the case). *)

type scheme = Native | Hybrid | Emitted | Valgrind | Retrowrite | Lockdown | Bincfi

val schemes : scheme list

val to_scheme : scheme -> Jt_schemes.Scheme.t
(** The entry of the scheme table each fuzz scheme runs as ([Hybrid] is
    JASan hybrid, [Lockdown] the strong policy). *)

val scheme_name : scheme -> string
(** [Jt_schemes.Scheme.name] of {!to_scheme}. *)

type detection =
  | Ran of Jt_vm.Vm.result * (int * int) option
      (** result, plus [(sites, pins)] for the emitted scheme *)
  | Refused of string

val run_scheme : scheme -> Jt_obj.Objfile.t -> detection

type expectation = Expect_kinds of string list | Expect_refusal

val expected : case -> scheme -> expectation

type mismatch = { mm_case : string; mm_scheme : string; mm_what : string }

(** Detection matrix against ground truth (was a bug injected?) — an
    {e expected} miss, like the Valgrind-class baseline on a stack
    smash or a CFI-only baseline on any memory bug, is still an FN
    here; only the [rp_mismatches] list judges schemes against their
    own expected behaviour. *)
type matrix_row = {
  mx_scheme : string;
  mx_tp : int;  (** injected, the expected kind was reported *)
  mx_fn : int;  (** injected, missed *)
  mx_tn : int;  (** benign, silent *)
  mx_fp : int;  (** a kind the injection does not explain *)
  mx_refused : int;  (** typed refusals (expected ones included) *)
}

type report = {
  rp_cases : int;
  rp_runs : int;
  rp_matrix : matrix_row list;
  rp_mismatches : mismatch list;  (** empty iff the suite is sound *)
}

val run_suite : ?base_seed:int -> ?seeds:int -> unit -> report
(** Defaults: [base_seed = 1], [seeds = 84] — 504 cases, deterministic. *)
