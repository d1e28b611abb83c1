(* Why a [free] call is rejected: the two classes need distinct verdicts
   downstream (CWE-415 double free vs. an invalid/interior pointer). *)
type bad_free_kind = Double_free | Invalid_free

type event =
  | Ev_alloc of { id : int; addr : int; size : int; redzone : int }
  | Ev_free of { id : int; addr : int; size : int }
  | Ev_unquarantine of { id : int; addr : int; size : int }
  | Ev_bad_free of { addr : int; kind : bad_free_kind }

type block = {
  b_id : int;
  b_addr : int;
  b_size : int;
  b_redzone : int;  (* redzone in effect when the block was carved *)
  mutable b_live : bool;
}

type t = {
  mutable brk : int;
  blocks : (int, block) Hashtbl.t;
  mutable redzone : int;
  mutable listeners : (event -> unit) list;
  mutable next_id : int;
  quarantine : block Queue.t;
  mutable quarantine_bytes : int;
  quarantine_capacity : int;
  reuse : bool;
  (* retired (drained) footprints available for reuse, keyed by
     (user size, redzone): identical layout, so handing one out is
     indistinguishable from a bump allocation at that address *)
  free_slots : (int * int, int list ref) Hashtbl.t;
}

let default_base = 0x5000_0000
let default_quarantine_capacity = 1 lsl 20

let create ?(base = default_base) ?(reuse = false)
    ?(quarantine_capacity = default_quarantine_capacity) () =
  {
    brk = base;
    blocks = Hashtbl.create 64;
    redzone = 0;
    listeners = [];
    next_id = 1;
    quarantine = Queue.create ();
    quarantine_bytes = 0;
    quarantine_capacity;
    reuse;
    free_slots = Hashtbl.create 8;
  }

let set_redzone t n = t.redzone <- n

let quarantined_bytes t = t.quarantine_bytes
let subscribe t f = t.listeners <- f :: t.listeners
let fire t ev = List.iter (fun f -> f ev) t.listeners

let align8 x = (x + 7) land lnot 7

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let register t b =
  Hashtbl.replace t.blocks b.b_addr b;
  fire t (Ev_alloc { id = b.b_id; addr = b.b_addr; size = b.b_size; redzone = b.b_redzone })

(* Retire quarantined blocks oldest-first until the quarantine fits its
   byte budget again.  A retired footprint becomes reusable (when the
   allocator was created with [reuse]); its shadow bookkeeping is the
   subscribers' business — they see [Ev_unquarantine]. *)
let drain t =
  while t.quarantine_bytes > t.quarantine_capacity do
    let b = Queue.pop t.quarantine in
    t.quarantine_bytes <- t.quarantine_bytes - b.b_size;
    if t.reuse then begin
      let key = (b.b_size, b.b_redzone) in
      let slots =
        match Hashtbl.find_opt t.free_slots key with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.replace t.free_slots key s;
          s
      in
      slots := b.b_addr :: !slots
    end;
    fire t (Ev_unquarantine { id = b.b_id; addr = b.b_addr; size = b.b_size })
  done

let malloc t size =
  let size = max size 0 in
  let addr =
    match
      if t.reuse then Hashtbl.find_opt t.free_slots (size, t.redzone) else None
    with
    | Some ({ contents = a :: rest } as slots) ->
      slots := rest;
      a
    | Some _ | None ->
      let a = t.brk + t.redzone in
      t.brk <- align8 (a + size + t.redzone);
      a
  in
  let b =
    { b_id = fresh_id t; b_addr = addr; b_size = size; b_redzone = t.redzone;
      b_live = true }
  in
  register t b;
  addr

let free t addr =
  match Hashtbl.find_opt t.blocks addr with
  | Some b when b.b_live ->
    b.b_live <- false;
    Queue.push b t.quarantine;
    t.quarantine_bytes <- t.quarantine_bytes + b.b_size;
    fire t (Ev_free { id = b.b_id; addr; size = b.b_size });
    drain t
  | Some _ -> fire t (Ev_bad_free { addr; kind = Double_free })
  | None -> fire t (Ev_bad_free { addr; kind = Invalid_free })

let block_of t addr =
  let found = ref None in
  Hashtbl.iter
    (fun _ b ->
      if addr >= b.b_addr && addr < b.b_addr + max b.b_size 1 then
        found := Some (b.b_addr, b.b_size, b.b_live))
    t.blocks;
  !found
