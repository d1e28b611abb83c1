open Jt_isa

type t = {
  shadow : Jt_jasan.Shadow.t;
  quarantined : (int, int * int) Hashtbl.t;
}

let create () =
  { shadow = Jt_jasan.Shadow.create (); quarantined = Hashtbl.create 16 }

let align8 x = (x + 7) land lnot 7

let attach t (vm : Jt_vm.Vm.t) =
  Jt_vm.Alloc.set_redzone vm.alloc Jt_jasan.Jasan.redzone_bytes;
  Jt_vm.Alloc.subscribe vm.alloc (fun ev ->
      match ev with
      | Jt_vm.Alloc.Ev_alloc { id = _; addr; size; redzone } ->
        Jt_jasan.Shadow.poison t.shadow (addr - redzone) ~len:redzone
          Jt_jasan.Shadow.Heap_redzone;
        Jt_jasan.Shadow.unpoison t.shadow addr ~len:size;
        (* Coarser than JASan: the right redzone starts at the 8-byte
           boundary, leaving the alignment slack addressable. *)
        Jt_jasan.Shadow.poison t.shadow (align8 (addr + size)) ~len:redzone
          Jt_jasan.Shadow.Heap_redzone;
        Hashtbl.iter
          (fun _ (qa, qs) ->
            let lo = max addr qa and hi = min (addr + size) (qa + qs) in
            if hi > lo then
              Jt_jasan.Shadow.poison t.shadow lo ~len:(hi - lo)
                Jt_jasan.Shadow.Heap_freed)
          t.quarantined
      | Jt_vm.Alloc.Ev_free { id; addr; size } ->
        (* Exactly [size] bytes: a zero-size block's [addr] byte belongs
           to its own right redzone, not to the freed payload. *)
        Jt_jasan.Shadow.poison t.shadow addr ~len:size Jt_jasan.Shadow.Heap_freed;
        Hashtbl.replace t.quarantined id (addr, size)
      | Jt_vm.Alloc.Ev_unquarantine { id; _ } -> Hashtbl.remove t.quarantined id
      | Jt_vm.Alloc.Ev_bad_free { addr; kind } ->
        let kind =
          match kind with
          | Jt_vm.Alloc.Double_free -> "double-free"
          | Jt_vm.Alloc.Invalid_free -> "invalid-free"
        in
        Jt_vm.Vm.report_violation vm ~kind ~addr)

let check t (vm : Jt_vm.Vm.t) ~addr ~len =
  match Jt_jasan.Shadow.first_poisoned t.shadow addr ~len with
  | Some (a, Jt_jasan.Shadow.Heap_freed) ->
    Jt_vm.Vm.report_violation vm ~kind:"heap-use-after-free" ~addr:a
  | Some (a, _) -> Jt_vm.Vm.report_violation vm ~kind:"heap-buffer-overflow" ~addr:a
  | None -> ()

(* Interpretation overhead on every instruction, plus a heavyweight
   shadow check before every load and store. *)
let instrument t ~at i len op =
  match (i : Insn.t) with
  | Load (w, _, m) | Store (w, m, _) ->
    let ea = Jt_vm.Vm.compile_addr ~next_pc:(at + len) m
    and len = Insn.width_bytes w in
    fun vm ->
      Jt_vm.Vm.charge vm (Jt_vm.Cost.valgrind_per_insn + Jt_vm.Cost.valgrind_mem_check);
      check t vm ~addr:(ea vm) ~len;
      op vm
  | _ ->
    fun vm ->
      Jt_vm.Vm.charge vm Jt_vm.Cost.valgrind_per_insn;
      op vm

let run ?fuel ~registry ~main () =
  let t = create () in
  let vm = Jt_vm.Vm.make ~instrument:(instrument t) ~registry () in
  attach t vm;
  Jt_vm.Vm.boot vm ~main;
  Jt_vm.Vm.run ?fuel vm;
  Jt_vm.Vm.result vm
