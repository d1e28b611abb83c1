(* Spans recorded from the benchmark's own files, around its calls into
   each library.

   Every call goes through [time] in both modes, so the untraced and the
   traced run make the same calls in the same order: each span is timed
   and its duration added to a per-name total (the end-to-end metrics
   need the analysis and run-call totals).  With recording on, the span
   is also kept in memory — name, layer, start, end, parent span and the
   op it belongs to — and written out as JSON lines when the run ends. *)

type t = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** [-1] for an op's root span *)
  op : int;
  t0 : float;
  t1 : float;
}

let now = Unix.gettimeofday
let recording = ref false
let recorded : t list ref = ref []  (* newest first *)
let next_id = ref 0
let stack : int list ref = ref []
let cur_op = ref (-1)
let n_ops = ref 0
let totals : (string, float ref) Hashtbl.t = Hashtbl.create 64

let total name =
  match Hashtbl.find_opt totals name with Some r -> !r | None -> 0.0

let add_total name dt =
  match Hashtbl.find_opt totals name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.replace totals name (ref dt)

(* Machine-speed probe.  This box's CPU speed drifts by tens of per cent
   within seconds (other tenants share the cores), so host times are
   scaled by the time a fixed piece of work takes, run every
   [probe_period] seconds from a timer signal: inside library calls as
   well as between them.  The work is the benchmark's own, so no change
   to the libraries moves it.  Probe time is taken out of every span
   total and op latency. *)
let probe_ref = 1.5e-3 (* seconds the probe takes at this box's usual speed *)
let probe_period = 0.05
let probe_cells = Array.make 65536 0
let probe_total = ref 0.0
let probe_count = ref 0

let probe () =
  let t = now () in
  (* scattered array updates and short-lived allocation, like the
     libraries' own work; nothing it allocates outlives the probe, so it
     barely moves the GC's pacing *)
  let x = ref 1 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0xFFFF;
    probe_cells.(!x) <- probe_cells.(!x) + 1
  done;
  for i = 1 to 150_000 do
    ignore (Sys.opaque_identity (ref i))
  done;
  probe_total := !probe_total +. (now () -. t);
  incr probe_count

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period })

let start_probes () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  set_timer probe_period

let stop_probes () =
  set_timer 0.0;
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* A mark in the probe record; [slowness_since m] is how much slower
   than usual the box ran since then: divide host times by it, multiply
   host rates by it. *)
let probe_mark () = (!probe_total, !probe_count)

let slowness_since (t0, n0) =
  let n = !probe_count - n0 in
  if n = 0 then 1.0 else (!probe_total -. t0) /. float_of_int n /. probe_ref

(* Host seconds since [t0] (read together with [mark]), less probe time. *)
let busy_since t0 (p0, _) = now () -. t0 -. (!probe_total -. p0)

let time ~layer name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let mark = probe_mark () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    stack := (match !stack with _ :: tl -> tl | [] -> []);
    add_total name (busy_since t0 mark);
    if !recording then
      recorded := { id; name; layer; parent; op = !cur_op; t0; t1 } :: !recorded
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* One op: the root span every other span of the op hangs under.
   Returns the op's latency in seconds, without the probes run inside,
   and the box's slowness during the op when at least three probes ran
   in it. *)
let op f =
  cur_op := !n_ops;
  incr n_ops;
  let mark = probe_mark () in
  let t0 = now () in
  time ~layer:"bench" "op" f;
  let dt = busy_since t0 mark in
  cur_op := -1;
  (dt, if !probe_count - snd mark >= 3 then Some (slowness_since mark) else None)

(* Host cost of one recorded span, measured by recording [n] empty spans
   and throwing them away. *)
let calibrate n =
  let saved_rec = !recording and saved = !recorded in
  recording := true;
  let t0 = now () in
  for _ = 1 to n do
    time ~layer:"bench" "calibrate" ignore
  done;
  let per = (now () -. t0) /. float_of_int n in
  recording := saved_rec;
  recorded := saved;
  Hashtbl.remove totals "calibrate";
  per

(* Self time: a span's duration minus the time its children cover.
   Spans nest (one client on one domain), so children never overlap. *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)
        in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. covered))
    spans

(* Spans whose parent was never recorded, that end outside their parent,
   or that claim another op than their parent's.  Only an op's root span
   may have no parent. *)
let orphans spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter
    (fun s ->
      if s.parent < 0 then s.name <> "op" || s.op < 0
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> true
        | Some p -> s.t0 < p.t0 || s.t1 > p.t1 || s.op <> p.op)
    spans

let to_json s =
  Printf.sprintf
    "{\"id\": %d, \"name\": \"%s\", \"layer\": \"%s\", \"parent\": %d, \
     \"op\": %d, \"start\": %.6f, \"end\": %.6f}"
    s.id s.name s.layer s.parent s.op s.t0 s.t1

let dump path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    spans;
  close_out oc

(* Lines of a dump written by [dump]; the traced run reloads its own. *)
let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n
