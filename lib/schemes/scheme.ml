type mode = Hybrid | Dyn

type t =
  | Native
  | Null
  | Jasan of mode
  | Jcfi of mode
  | Taint of mode
  | Jasan_emitted
  | Valgrind
  | Retrowrite
  | Lockdown of Jt_baselines.Lockdown.policy
  | Bincfi

let all =
  [ Native; Null; Jasan Hybrid; Jasan Dyn; Jcfi Hybrid; Jcfi Dyn; Taint Hybrid;
    Taint Dyn; Jasan_emitted; Valgrind; Retrowrite; Lockdown Strong;
    Lockdown Weak; Bincfi ]

let mode_name = function Hybrid -> "hybrid" | Dyn -> "dyn"

let name = function
  | Native -> "native"
  | Null -> "null"
  | Jasan m -> "jasan-" ^ mode_name m
  | Jcfi m -> "jcfi-" ^ mode_name m
  | Taint m -> "taint-" ^ mode_name m
  | Jasan_emitted -> "jasan-emitted"
  | Valgrind -> "valgrind"
  | Retrowrite -> "retrowrite"
  | Lockdown Strong -> "lockdown"
  | Lockdown Weak -> "lockdown-weak"
  | Bincfi -> "bincfi"

let of_string s = List.find_opt (fun t -> String.equal (name t) s) all

type figure = No_figure | Dynamic_air of float | Alerts of int

type outcome = {
  so_run : Janitizer.Driver.outcome;
  so_sites_pins : (int * int) option;
  so_figure : figure;
}

type refusal =
  | Emit_refused of string * Jt_emit.Emit.refusal
  | Retrowrite_refused of Jt_baselines.Retrowrite_like.refusal
  | Bincfi_refused of Jt_baselines.Bincfi.refusal

let refusal_to_string = function
  | Emit_refused (m, _) -> "emit:" ^ m
  | Retrowrite_refused (Needs_pic m) -> "needs-pic:" ^ m
  | Retrowrite_refused (Unsupported_feature (m, f)) ->
    Printf.sprintf "unsupported:%s:%s" m f
  | Bincfi_refused (Broken_rewrite m) -> "broken-rewrite:" ^ m

let of_driver ?(figure = No_figure) ?sites_pins o =
  { so_run = o; so_sites_pins = sites_pins; so_figure = figure }

(* A run off the DBT with no static pass: a baseline. *)
let plain ?figure r =
  of_driver ?figure
    { o_result = r; o_dbt = None; o_dynamic_fraction = 0.0; o_rule_count = 0;
      o_trace_elisions = [] }

let run ?fuel ?store scheme ~registry ~main =
  (* [figure] reads the tool's runtime once the run is over *)
  let drive ?(figure = fun () -> No_figure) mode tool =
    let o =
      Janitizer.Driver.run ?fuel ?store ~hybrid:(mode = Hybrid) ~tool ~registry
        ~main ()
    in
    Ok (of_driver ~figure:(figure ()) o)
  in
  match scheme with
  | Native -> Ok (of_driver (Janitizer.Driver.run_native ?fuel ~registry ~main ()))
  | Null -> Ok (of_driver (Janitizer.Driver.run_null ?fuel ~registry ~main ()))
  | Jasan mode -> drive mode (fst (Jt_jasan.Jasan.create ()))
  | Jcfi mode ->
    let tool, rt = Jt_jcfi.Jcfi.create () in
    drive mode tool ~figure:(fun () -> Dynamic_air (Jt_jcfi.Air.dynamic rt))
  | Taint mode ->
    let tool, rt = Jt_taint.Taint.create () in
    drive mode tool ~figure:(fun () -> Alerts (Jt_taint.Taint.Rt.alerts rt))
  | Jasan_emitted -> (
    match
      Jt_emit.Emit.emit_program ?store ~tool:(Jt_emit.Emit.Asan { elide = true })
        ~registry ~main ()
    with
    | Error (m, r) -> Error (Emit_refused (m, r))
    | Ok p ->
      let ro = Jt_emit.Emit.run ?fuel p in
      Ok (of_driver ~sites_pins:(ro.ro_sites, ro.ro_pins) ro.ro_outcome))
  | Valgrind -> Ok (plain (Jt_baselines.Valgrind_like.run ?fuel ~registry ~main ()))
  | Retrowrite ->
    Jt_baselines.Retrowrite_like.run ?fuel ~registry ~main ()
    |> Result.map plain
    |> Result.map_error (fun r -> Retrowrite_refused r)
  | Lockdown policy ->
    let lk = Jt_baselines.Lockdown.run ?fuel ~policy ~registry ~main () in
    Ok (plain ~figure:(Dynamic_air lk.lk_dynamic_air) lk.lk_result)
  | Bincfi ->
    Jt_baselines.Bincfi.run ?fuel ~registry ~main ()
    |> Result.map plain
    |> Result.map_error (fun r -> Bincfi_refused r)
