(** The execution schemes of the evaluation (Figures 7–14), in one
    table: native, the null DBT, the three framework tools hybrid or
    dynamic-only, JASan emitted, and the four baselines.  This is the one
    place a scheme is named, built and run; the CLI, the figure sweep,
    the fuzzer and the Juliet suite all go through {!run}. *)

type mode =
  | Hybrid  (** static rules fed to the dynamic modifier *)
  | Dyn  (** every block on the dynamic-fallback path *)

type t =
  | Native
  | Null  (** the DBT with no tool attached *)
  | Jasan of mode
  | Jcfi of mode
  | Taint of mode
  | Jasan_emitted  (** checks compiled into the binary, run on the plain VM *)
  | Valgrind
  | Retrowrite
  | Lockdown of Jt_baselines.Lockdown.policy
  | Bincfi

val all : t list

val name : t -> string
(** A unique lower-case name ([jasan-hybrid], [lockdown-weak], ...): the
    key bench reports and perfbench spans use. *)

val of_string : string -> t option
(** The inverse of {!name}. *)

(** The one figure a front end prints per tool. *)
type figure =
  | No_figure
  | Dynamic_air of float  (** JCFI and Lockdown: dynamic AIR, in % *)
  | Alerts of int  (** taint: tainted-target transfers flagged *)

type outcome = {
  so_run : Janitizer.Driver.outcome;
      (** result, DBT stats, rule count, dynamic-block fraction; a
          baseline's has no DBT stats and no rules *)
  so_sites_pins : (int * int) option;
      (** [(sites, pins)] the emitted binary executed: its icount minus
          both is the native icount *)
  so_figure : figure;
}

(** Why a static rewriter refused the program. *)
type refusal =
  | Emit_refused of string * Jt_emit.Emit.refusal  (** module, reason *)
  | Retrowrite_refused of Jt_baselines.Retrowrite_like.refusal
  | Bincfi_refused of Jt_baselines.Bincfi.refusal

val refusal_to_string : refusal -> string

val run :
  ?fuel:int ->
  ?store:Jt_ir.Store.t ->
  t ->
  registry:Jt_obj.Objfile.t list ->
  main:string ->
  (outcome, refusal) result
(** Run [main] under the scheme, with a fresh tool instance.  [fuel]
    goes to every runner; [store] to the framework tools' static pass
    and to the emitter. *)
