(* Structured tracing & profiling: a fixed-capacity ring buffer of typed
   runtime events plus span-style phase timers with simulated-cycle
   attribution.

   The layer is a domain-local sink (like [Metrics.Counters]) so emit
   points anywhere in the runtime can reach it without threading a handle
   through every API, while concurrent driver runs on a [Jt_pool] each
   capture their own stream.  The contract with emitters is:

     if Jt_trace.Trace.is_enabled () then
       Jt_trace.Trace.emit (Jt_trace.Trace.Ibl_hit { site; target })

   i.e. the disabled path costs a DLS load plus one branch and never
   allocates (the event is constructed inside the guard).  Enabling
   tracing must not perturb the simulated machine: emitters only observe,
   they never charge cycles or touch guest state, so status, output,
   icount, cycles and violations are bit-identical with tracing on or
   off (asserted by `bench trace-overhead`). *)

type origin = Static | Dynamic

type phase = Analyze | Rewrite | Load | Run

let phase_name = function
  | Analyze -> "analyze"
  | Rewrite -> "rewrite"
  | Load -> "load"
  | Run -> "run"

let origin_name = function Static -> "static" | Dynamic -> "dynamic"

type event =
  | Block_translate of { pc : int; insns : int; origin : origin }
  | Block_exec of { pc : int }
  | Chain_link of { from_pc : int; to_pc : int }
  | Chain_sever of { from_pc : int; to_pc : int }
  | Ibl_hit of { site : int; target : int }
  | Ibl_miss of { site : int; target : int }
  | Trace_build of { head : int; blocks : int }
  | Trace_teardown of { head : int }
  | Trace_elide of {
      head : int;  (** head address of the trace the decision belongs to *)
      insn : int;  (** address of the access whose check the trace elides *)
      reason : string;
          (** ["trace-dom"] (dominated within the trace by an identical
              check), ["trace-streak"] (loop-invariant, justified by the
              trace's own back-edge) or ["trace-ind"] (hoisted to the
              induction guard's endpoint checks) *)
      witness : int;
          (** address of the earlier access whose check subsumes this
              one; [0] if unknown *)
    }
  | Flush_range of { start : int; len : int }
  | Module_load of { name : string; base : int }
  | Module_unload of { name : string }
  | Dlopen of { name : string; handle : int }
  | Dlclose of { name : string; ok : bool }
  | Plt_resolve of { caller : int; target : int }
  | Shadow_poison of { addr : int; len : int; state : int }
  | Shadow_unpoison of { addr : int; len : int }
  | Check_elide of {
      insn : int;  (** address of the access whose check was elided *)
      fn : int;  (** entry address of the containing function *)
      reason : string;  (** "dom" *)
      witness : int;  (** dominating checked access for "dom", else 0 *)
    }
  | Violation of {
      kind : string;
      addr : int;
      pc : int;
      vmodule : string;  (** module containing the faulting pc, or "?" *)
      origin : origin;  (** provenance of the executing block *)
    }
  | Cfi_table of { name : string; entries : int }
  | Store_hit of { name : string; source : string }
      (* ["mem"] (in-memory LRU) or ["disk"] *)
  | Store_miss of { name : string }
  | Store_evict of { name : string }
  | Store_corrupt of { name : string; why : string }
  | Phase_begin of { phase : phase }
  | Phase_end of { phase : phase; host_s : float; cycles : int }

(* ---- ring buffer ---- *)

let default_capacity = 65536

let dummy = Block_exec { pc = 0 }

type ring = {
  buf : event array;
  cap : int;
  mutable total : int;  (** events ever emitted; head = total mod cap *)
}

(* ---- phase accumulators ---- *)

type phase_tot = {
  mutable pt_host : float;  (** accumulated wall-clock seconds *)
  mutable pt_cycles : int;  (** attributed simulated cycles *)
  mutable pt_count : int;  (** completed spans *)
  mutable pt_open : float;  (** start time of the open span, or nan *)
  mutable pt_open_cycles : int;  (** cycles attributed before the span closed *)
}

let phases = [ Analyze; Rewrite; Load; Run ]

let phase_index = function Analyze -> 0 | Rewrite -> 1 | Load -> 2 | Run -> 3

(* ---- domain-local trace state ----

   Everything mutable — the on/off flag, the ring, the exec-origin
   latch, the phase accumulators — lives in one record stored in
   [Domain.DLS], so two driver runs on different pool domains capture
   disjoint streams instead of silently interleaving into one ring. *)

type state = {
  mutable s_enabled : bool;
  mutable s_ring : ring option;
  mutable s_exec_origin : origin;
      (** provenance of the currently executing translated block,
          maintained by the DBT so violation reports (surfacing in
          lib/vm, far below the DBT) can carry static-vs-dynamic origin;
          only updated while tracing is enabled *)
  s_totals : phase_tot array;
}

let fresh_state () =
  {
    s_enabled = false;
    s_ring = None;
    s_exec_origin = Dynamic;
    s_totals =
      Array.init 4 (fun _ ->
          { pt_host = 0.0; pt_cycles = 0; pt_count = 0; pt_open = Float.nan;
            pt_open_cycles = 0 });
  }

let key = Domain.DLS.new_key fresh_state

let state () = Domain.DLS.get key

let is_enabled () = (state ()).s_enabled

let exec_origin () = (state ()).s_exec_origin

let set_exec_origin o = (state ()).s_exec_origin <- o

(* Emit sites guard with [if is_enabled () then emit ...] so the
   disabled path never even constructs the event; the re-check here
   makes a stray unguarded [emit] after [disable] harmless too. *)
let emit ev =
  let st = state () in
  if st.s_enabled then
    match st.s_ring with
    | None -> ()
    | Some r ->
      r.buf.(r.total mod r.cap) <- ev;
      r.total <- r.total + 1

(* ---- phase spans ---- *)

let phase_begin p =
  let st = state () in
  if st.s_enabled then begin
    let t = st.s_totals.(phase_index p) in
    t.pt_open <- Sys.time ();
    t.pt_open_cycles <- 0;
    emit (Phase_begin { phase = p })
  end

let phase_add_cycles p n =
  let st = state () in
  if st.s_enabled then begin
    let t = st.s_totals.(phase_index p) in
    t.pt_cycles <- t.pt_cycles + n;
    if not (Float.is_nan t.pt_open) then t.pt_open_cycles <- t.pt_open_cycles + n
  end

let phase_end p =
  let st = state () in
  if st.s_enabled then begin
    let t = st.s_totals.(phase_index p) in
    let host_s =
      if Float.is_nan t.pt_open then 0.0 else Sys.time () -. t.pt_open
    in
    t.pt_host <- t.pt_host +. host_s;
    t.pt_count <- t.pt_count + 1;
    emit (Phase_end { phase = p; host_s; cycles = t.pt_open_cycles });
    t.pt_open <- Float.nan;
    t.pt_open_cycles <- 0
  end

let in_phase p f =
  if not (is_enabled ()) then f ()
  else begin
    phase_begin p;
    match f () with
    | v ->
      phase_end p;
      v
    | exception e ->
      phase_end p;
      raise e
  end

type phase_summary = {
  ps_phase : phase;
  ps_spans : int;
  ps_host_s : float;
  ps_cycles : int;
}

let phase_totals () =
  let st = state () in
  List.map
    (fun p ->
      let t = st.s_totals.(phase_index p) in
      { ps_phase = p; ps_spans = t.pt_count; ps_host_s = t.pt_host; ps_cycles = t.pt_cycles })
    phases

(* ---- lifecycle ---- *)

let clear () =
  let st = state () in
  (match st.s_ring with Some r -> r.total <- 0 | None -> ());
  Array.iter
    (fun t ->
      t.pt_host <- 0.0;
      t.pt_cycles <- 0;
      t.pt_count <- 0;
      t.pt_open <- Float.nan;
      t.pt_open_cycles <- 0)
    st.s_totals;
  st.s_exec_origin <- Dynamic

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity must be positive";
  let st = state () in
  (match st.s_ring with
  | Some r when r.cap = capacity -> ()
  | Some _ | None ->
    st.s_ring <- Some { buf = Array.make capacity dummy; cap = capacity; total = 0 });
  clear ();
  st.s_enabled <- true

let disable () = (state ()).s_enabled <- false

let emitted () = match (state ()).s_ring with Some r -> r.total | None -> 0

let dropped () =
  match (state ()).s_ring with Some r -> max 0 (r.total - r.cap) | None -> 0

let events () =
  match (state ()).s_ring with
  | None -> []
  | Some r ->
    let n = min r.total r.cap in
    let first = r.total - n in
    List.init n (fun i -> r.buf.((first + i) mod r.cap))

(* ---- JSONL export ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_to_json ev =
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"
  in
  let i v = string_of_int v in
  let s v = "\"" ^ json_escape v ^ "\"" in
  let b v = if v then "true" else "false" in
  match ev with
  | Block_translate { pc; insns; origin } ->
    obj [ ("ev", s "block_translate"); ("pc", i pc); ("insns", i insns); ("origin", s (origin_name origin)) ]
  | Block_exec { pc } -> obj [ ("ev", s "block_exec"); ("pc", i pc) ]
  | Chain_link { from_pc; to_pc } ->
    obj [ ("ev", s "chain_link"); ("from", i from_pc); ("to", i to_pc) ]
  | Chain_sever { from_pc; to_pc } ->
    obj [ ("ev", s "chain_sever"); ("from", i from_pc); ("to", i to_pc) ]
  | Ibl_hit { site; target } -> obj [ ("ev", s "ibl_hit"); ("site", i site); ("target", i target) ]
  | Ibl_miss { site; target } -> obj [ ("ev", s "ibl_miss"); ("site", i site); ("target", i target) ]
  | Trace_build { head; blocks } ->
    obj [ ("ev", s "trace_build"); ("head", i head); ("blocks", i blocks) ]
  | Trace_teardown { head } -> obj [ ("ev", s "trace_teardown"); ("head", i head) ]
  | Trace_elide { head; insn; reason; witness } ->
    obj
      [ ("ev", s "trace_elide"); ("head", i head); ("insn", i insn);
        ("reason", s reason); ("witness", i witness) ]
  | Flush_range { start; len } -> obj [ ("ev", s "flush_range"); ("start", i start); ("len", i len) ]
  | Module_load { name; base } -> obj [ ("ev", s "module_load"); ("name", s name); ("base", i base) ]
  | Module_unload { name } -> obj [ ("ev", s "module_unload"); ("name", s name) ]
  | Dlopen { name; handle } -> obj [ ("ev", s "dlopen"); ("name", s name); ("handle", i handle) ]
  | Dlclose { name; ok } -> obj [ ("ev", s "dlclose"); ("name", s name); ("ok", b ok) ]
  | Plt_resolve { caller; target } ->
    obj [ ("ev", s "plt_resolve"); ("caller", i caller); ("target", i target) ]
  | Shadow_poison { addr; len; state } ->
    obj [ ("ev", s "shadow_poison"); ("addr", i addr); ("len", i len); ("state", i state) ]
  | Shadow_unpoison { addr; len } ->
    obj [ ("ev", s "shadow_unpoison"); ("addr", i addr); ("len", i len) ]
  | Check_elide { insn; fn; reason; witness } ->
    obj
      [ ("ev", s "check_elide"); ("insn", i insn); ("fn", i fn);
        ("reason", s reason); ("witness", i witness) ]
  | Violation { kind; addr; pc; vmodule; origin } ->
    obj
      [ ("ev", s "violation"); ("kind", s kind); ("addr", i addr); ("pc", i pc);
        ("module", s vmodule); ("origin", s (origin_name origin)) ]
  | Cfi_table { name; entries } ->
    obj [ ("ev", s "cfi_table"); ("name", s name); ("entries", i entries) ]
  | Store_hit { name; source } ->
    obj [ ("ev", s "store_hit"); ("name", s name); ("source", s source) ]
  | Store_miss { name } -> obj [ ("ev", s "store_miss"); ("name", s name) ]
  | Store_evict { name } -> obj [ ("ev", s "store_evict"); ("name", s name) ]
  | Store_corrupt { name; why } ->
    obj [ ("ev", s "store_corrupt"); ("name", s name); ("why", s why) ]
  | Phase_begin { phase } -> obj [ ("ev", s "phase_begin"); ("phase", s (phase_name phase)) ]
  | Phase_end { phase; host_s; cycles } ->
    obj
      [ ("ev", s "phase_end"); ("phase", s (phase_name phase));
        ("host_s", Printf.sprintf "%.6f" host_s); ("cycles", i cycles) ]

let export oc =
  List.iter
    (fun ev ->
      output_string oc (event_to_json ev);
      output_char oc '\n')
    (events ())

(* ---- event-kind summary (for the CLI) ---- *)

let kind_name = function
  | Block_translate _ -> "block_translate"
  | Block_exec _ -> "block_exec"
  | Chain_link _ -> "chain_link"
  | Chain_sever _ -> "chain_sever"
  | Ibl_hit _ -> "ibl_hit"
  | Ibl_miss _ -> "ibl_miss"
  | Trace_build _ -> "trace_build"
  | Trace_teardown _ -> "trace_teardown"
  | Trace_elide _ -> "trace_elide"
  | Flush_range _ -> "flush_range"
  | Module_load _ -> "module_load"
  | Module_unload _ -> "module_unload"
  | Dlopen _ -> "dlopen"
  | Dlclose _ -> "dlclose"
  | Plt_resolve _ -> "plt_resolve"
  | Shadow_poison _ -> "shadow_poison"
  | Shadow_unpoison _ -> "shadow_unpoison"
  | Check_elide _ -> "check_elide"
  | Violation _ -> "violation"
  | Cfi_table _ -> "cfi_table"
  | Store_hit _ -> "store_hit"
  | Store_miss _ -> "store_miss"
  | Store_evict _ -> "store_evict"
  | Store_corrupt _ -> "store_corrupt"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"

let kind_counts () =
  let tbl = Hashtbl.create 24 in
  List.iter
    (fun ev ->
      let k = kind_name ev in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (events ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ---- entry-accounting invariant ----

   Every executed block arrives through exactly one of the dispatcher, a
   chain link, an IBL hit or a trace-interior transition; a dispatcher
   entry that resolves to an empty (decode-faulting) block is accounted
   by [decode_faults].  Formerly a bench-harness self-check, the identity
   is now asserted by the engine itself after every [Dbt.run] — a broken
   identity means a dispatch or stats bug, and failing loudly beats
   publishing wrong attribution. *)

exception Invariant_failure of string

let entry_accounting ~dispatch ~chain ~ibl ~trace_interior ~decode_faults
    ~block_execs =
  let accounted = dispatch + chain + ibl + trace_interior in
  if accounted <> block_execs + decode_faults then
    raise
      (Invariant_failure
         (Printf.sprintf
            "entry accounting broken: dispatch(%d) + chain(%d) + ibl(%d) + \
             trace_interior(%d) = %d <> block_execs(%d) + decode_faults(%d) = %d"
            dispatch chain ibl trace_interior accounted block_execs decode_faults
            (block_execs + decode_faults)))
