type 'a entry = { e_val : 'a; mutable e_tick : int }

type 'a t = {
  capacity : int;
  mu : Mutex.t;
  cond : Condition.t;
  tbl : (string, 'a entry) Hashtbl.t;
  in_flight : (string, unit) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Memo.create: negative capacity";
  {
    capacity;
    mu = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 16;
    in_flight = Hashtbl.create 4;
    tick = 0;
    hits = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Caller holds the lock.  Returns whether an entry was evicted. *)
let insert t key v =
  if t.capacity = 0 then false
  else begin
    let evict =
      (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.capacity
    in
    if evict then begin
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best <= e.e_tick -> acc
            | _ -> Some (k, e.e_tick))
          t.tbl None
      in
      Option.iter (fun (k, _) -> Hashtbl.remove t.tbl k) victim;
      t.evictions <- t.evictions + 1
    end;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl key { e_val = v; e_tick = t.tick };
    evict
  end

let find_or_fill ?(on_hit = ignore) ?(on_evict = ignore) t key fill =
  Mutex.lock t.mu;
  (* Wait out any in-flight fill of this key, re-probing the table each
     time one publishes. *)
  let rec probe () =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      t.tick <- t.tick + 1;
      e.e_tick <- t.tick;
      t.hits <- t.hits + 1;
      Some e.e_val
    | None ->
      if Hashtbl.mem t.in_flight key then begin
        Condition.wait t.cond t.mu;
        probe ()
      end
      else None
  in
  match probe () with
  | Some v ->
    Mutex.unlock t.mu;
    on_hit ();
    v
  | None ->
    Hashtbl.replace t.in_flight key ();
    Mutex.unlock t.mu;
    let release () =
      Hashtbl.remove t.in_flight key;
      Condition.broadcast t.cond
    in
    (match fill () with
    | v ->
      let evicted =
        locked t (fun () ->
            release ();
            insert t key v)
      in
      if evicted then on_evict ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      locked t release;
      Printexc.raise_with_backtrace e bt)

let remove t key = locked t (fun () -> Hashtbl.remove t.tbl key)
let clear t = locked t (fun () -> Hashtbl.reset t.tbl)
let hits t = locked t (fun () -> t.hits)
let evictions t = locked t (fun () -> t.evictions)

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.evictions <- 0)
