module Codec = Jt_codec.Codec
module Trace = Jt_trace.Trace

type stats = {
  st_mem_hits : int;
  st_disk_hits : int;
  st_misses : int;
  st_evictions : int;
  st_corrupt : int;
}

type t = {
  dir : string;
  mem : Ir.t Memo.t;
  s_disk_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_corrupt : int Atomic.t;
}

let create ?(capacity = 32) ~dir () =
  if capacity < 0 then invalid_arg "Store.create: negative capacity";
  Codec.mkdir_p dir;
  {
    dir;
    mem = Memo.create ~capacity;
    s_disk_hits = Atomic.make 0;
    s_misses = Atomic.make 0;
    s_corrupt = Atomic.make 0;
  }

let dir t = t.dir

let path_of t digest = Filename.concat t.dir (Digest.to_hex digest ^ ".jtir")

(* ---- disk layer ---- *)

(* Mirrors [Driver.load_rules]: any failure that is not an asynchronous
   exception degrades to "not in the store" with a warning, so a corrupt
   or stale entry is transparently re-analyzed and overwritten. *)
let load_disk t ~digest ~name =
  let path = path_of t digest in
  let reject why =
    Printf.eprintf
      "janitizer: warning: rejecting IR store entry %s (%s), re-analyzing\n%!"
      path why;
    if Trace.is_enabled () then Trace.emit (Trace.Store_corrupt { name; why });
    Atomic.incr t.s_corrupt;
    None
  in
  if not (Sys.file_exists path) then None
  else
    match Ir.decode (Codec.read_file path) with
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception e -> reject (Codec.to_string e)
    | ir when not (String.equal ir.Ir.ir_digest digest) ->
      reject "stale digest (module content changed)"
    | ir ->
      (* Touch so gc's oldest-first disk eviction tracks access order,
         not just write order. *)
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Some ir

(* Atomic publish: concurrent readers see either the old entry or the
   complete new one, never a torn write. *)
let save_disk t ir = Codec.write_file_atomic (path_of t ir.Ir.ir_digest) (Ir.encode ir)

(* ---- lookup ---- *)

let find_or_compute t ~digest ~name compute =
  let on_hit () =
    if Trace.is_enabled () then
      Trace.emit (Trace.Store_hit { name; source = "mem" })
  and on_evict () =
    if Trace.is_enabled () then Trace.emit (Trace.Store_evict { name })
  in
  Memo.find_or_fill ~on_hit ~on_evict t.mem digest (fun () ->
      match load_disk t ~digest ~name with
      | Some ir ->
        Atomic.incr t.s_disk_hits;
        if Trace.is_enabled () then
          Trace.emit (Trace.Store_hit { name; source = "disk" });
        ir
      | None ->
        if Trace.is_enabled () then Trace.emit (Trace.Store_miss { name });
        let ir = compute () in
        save_disk t ir;
        Atomic.incr t.s_misses;
        ir)

(* ---- statistics ---- *)

let stats t =
  {
    st_mem_hits = Memo.hits t.mem;
    st_disk_hits = Atomic.get t.s_disk_hits;
    st_misses = Atomic.get t.s_misses;
    st_evictions = Memo.evictions t.mem;
    st_corrupt = Atomic.get t.s_corrupt;
  }

let reset_stats t =
  Memo.reset_stats t.mem;
  Atomic.set t.s_disk_hits 0;
  Atomic.set t.s_misses 0;
  Atomic.set t.s_corrupt 0

let hit_rate s =
  let hits = s.st_mem_hits + s.st_disk_hits in
  let total = hits + s.st_misses in
  if total = 0 then 1.0 else float_of_int hits /. float_of_int total

(* ---- disk maintenance ---- *)

let disk_entries t =
  let files =
    match Sys.readdir t.dir with
    | files -> Array.to_list files
    | exception Sys_error _ -> []
  in
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".jtir" then begin
        let path = Filename.concat t.dir f in
        match Unix.stat path with
        | { Unix.st_size; st_mtime; _ } -> Some (path, st_size, st_mtime)
        | exception Unix.Unix_error _ -> None
      end
      else None)
    files
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)

(* Entry file names are the hex digest the memory layer is keyed by. *)
let drop_mem_entry t path =
  match Digest.from_hex (Filename.remove_extension (Filename.basename path)) with
  | digest -> Memo.remove t.mem digest
  | exception Invalid_argument _ -> ()

let gc t ~max_bytes =
  if max_bytes < 0 then invalid_arg "Store.gc: negative max_bytes";
  let entries = disk_entries t in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries in
  let excess = ref (total - max_bytes) in
  let removed = ref 0 and freed = ref 0 in
  List.iter
    (fun (path, sz, _) ->
      if !excess > 0 then begin
        (try Sys.remove path with Sys_error _ -> ());
        drop_mem_entry t path;
        excess := !excess - sz;
        removed := !removed + 1;
        freed := !freed + sz
      end)
    entries;
  (!removed, !freed)

let clear t =
  let entries = disk_entries t in
  List.iter (fun (path, _, _) -> try Sys.remove path with Sys_error _ -> ())
    entries;
  Memo.clear t.mem;
  List.length entries
