(** Generator turning a {!Sheet.t} into a runnable workload.

    Every workload is a main executable (position-dependent by default,
    matching the paper's JASan setup; position-independent on request for
    the RetroWrite comparisons) plus the registry of binaries its process
    can reach: the four standard libraries and, when the sheet asks for
    one, a dlopen'd solver plugin that no static dependency walk can
    see. *)

type t = {
  w_sheet : Sheet.t;
  w_main : Jt_obj.Objfile.t;
  w_registry : Jt_obj.Objfile.t list;  (** main, plugins and libraries *)
}

val build : ?kind:Jt_obj.Objfile.kind -> Sheet.t -> t
(** @param kind default [Exec_nonpic]. *)


val run_native : t -> Jt_vm.Vm.result
