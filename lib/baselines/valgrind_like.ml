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

let run ?(fuel = 200_000_000) ~registry ~main () =
  let t = create () in
  let vm = Jt_vm.Vm.make ~registry in
  attach t vm;
  Jt_vm.Vm.boot vm ~main;
  let budget = fuel in
  while vm.status = Jt_vm.Vm.Running do
    if vm.icount >= budget then vm.status <- Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
    else if vm.pc = Jt_vm.Vm.sentinel then Jt_vm.Vm.advance_phase vm
    else
      match Jt_vm.Vm.fetch vm vm.pc with
      | None -> vm.status <- Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault vm.pc)
      | Some { d_insn = i; d_len = len; d_op } ->
        let at = vm.pc in
        (* Interpretation overhead on every instruction. *)
        Jt_vm.Vm.charge vm Jt_vm.Cost.valgrind_per_insn;
        (match i with
        | Insn.Load (w, _, m) | Insn.Store (w, m, _) ->
          Jt_vm.Vm.charge vm Jt_vm.Cost.valgrind_mem_check;
          let a = Jt_vm.Vm.eval_mem vm ~next_pc:(at + len) m in
          check t vm ~addr:a ~len:(Insn.width_bytes w)
        | _ -> ());
        d_op vm
  done;
  Jt_vm.Vm.result vm
