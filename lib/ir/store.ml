module Codec = Jt_codec.Codec
module Trace = Jt_trace.Trace

type entry = { e_ir : Ir.t; mutable e_tick : int }

type stats = {
  st_mem_hits : int;
  st_disk_hits : int;
  st_misses : int;
  st_evictions : int;
  st_corrupt : int;
}

type t = {
  dir : string;
  capacity : int;
  mu : Mutex.t;
  cond : Condition.t;
  mem : (string, entry) Hashtbl.t;
  in_flight : (string, unit) Hashtbl.t;
  mutable tick : int;
  mutable s_mem_hits : int;
  mutable s_disk_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_corrupt : int;
}

let create ?(capacity = 32) ~dir () =
  if capacity < 0 then invalid_arg "Store.create: negative capacity";
  Codec.mkdir_p dir;
  {
    dir;
    capacity;
    mu = Mutex.create ();
    cond = Condition.create ();
    mem = Hashtbl.create 16;
    in_flight = Hashtbl.create 4;
    tick = 0;
    s_mem_hits = 0;
    s_disk_hits = 0;
    s_misses = 0;
    s_evictions = 0;
    s_corrupt = 0;
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
    Mutex.lock t.mu;
    t.s_corrupt <- t.s_corrupt + 1;
    Mutex.unlock t.mu;
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

(* ---- in-memory LRU (caller holds the lock) ---- *)

let lru_insert t digest ir ~name =
  if t.capacity > 0 then begin
    if
      (not (Hashtbl.mem t.mem digest))
      && Hashtbl.length t.mem >= t.capacity
    then begin
      let victim =
        Hashtbl.fold
          (fun d e acc ->
            match acc with
            | Some (_, best) when best.e_tick <= e.e_tick -> acc
            | _ -> Some (d, e))
          t.mem None
      in
      match victim with
      | Some (d, _) ->
        Hashtbl.remove t.mem d;
        t.s_evictions <- t.s_evictions + 1;
        if Trace.is_enabled () then Trace.emit (Trace.Store_evict { name })
      | None -> ()
    end;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.mem digest { e_ir = ir; e_tick = t.tick }
  end

(* ---- lookup ---- *)

let find_or_compute t ~digest ~name compute =
  Mutex.lock t.mu;
  (* Wait out any in-flight computation of this digest, re-probing the
     memory layer each time it publishes. *)
  let rec probe () =
    match Hashtbl.find_opt t.mem digest with
    | Some e ->
      t.tick <- t.tick + 1;
      e.e_tick <- t.tick;
      t.s_mem_hits <- t.s_mem_hits + 1;
      Some e.e_ir
    | None ->
      if Hashtbl.mem t.in_flight digest then begin
        Condition.wait t.cond t.mu;
        probe ()
      end
      else None
  in
  match probe () with
  | Some ir ->
    Mutex.unlock t.mu;
    if Trace.is_enabled () then
      Trace.emit (Trace.Store_hit { name; source = "mem" });
    ir
  | None ->
    Hashtbl.replace t.in_flight digest ();
    Mutex.unlock t.mu;
    let finish () =
      Mutex.lock t.mu;
      Hashtbl.remove t.in_flight digest;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu
    in
    Fun.protect ~finally:finish (fun () ->
        match load_disk t ~digest ~name with
        | Some ir ->
          Mutex.lock t.mu;
          t.s_disk_hits <- t.s_disk_hits + 1;
          lru_insert t digest ir ~name;
          Mutex.unlock t.mu;
          if Trace.is_enabled () then
            Trace.emit (Trace.Store_hit { name; source = "disk" });
          ir
        | None ->
          if Trace.is_enabled () then Trace.emit (Trace.Store_miss { name });
          let ir = compute () in
          save_disk t ir;
          Mutex.lock t.mu;
          t.s_misses <- t.s_misses + 1;
          lru_insert t digest ir ~name;
          Mutex.unlock t.mu;
          ir)

(* ---- statistics ---- *)

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      st_mem_hits = t.s_mem_hits;
      st_disk_hits = t.s_disk_hits;
      st_misses = t.s_misses;
      st_evictions = t.s_evictions;
      st_corrupt = t.s_corrupt;
    }
  in
  Mutex.unlock t.mu;
  s

let reset_stats t =
  Mutex.lock t.mu;
  t.s_mem_hits <- 0;
  t.s_disk_hits <- 0;
  t.s_misses <- 0;
  t.s_evictions <- 0;
  t.s_corrupt <- 0;
  Mutex.unlock t.mu

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

let drop_mem_entry t path =
  (* The memory layer indexes by digest; entry file names are the hex
     digest, so removal can invalidate the matching LRU slot too. *)
  let base = Filename.remove_extension (Filename.basename path) in
  let victim =
    Hashtbl.fold
      (fun d _ acc -> if Digest.to_hex d = base then Some d else acc)
      t.mem None
  in
  Option.iter (Hashtbl.remove t.mem) victim

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
        Mutex.lock t.mu;
        drop_mem_entry t path;
        Mutex.unlock t.mu;
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
  Mutex.lock t.mu;
  Hashtbl.reset t.mem;
  Mutex.unlock t.mu;
  List.length entries
