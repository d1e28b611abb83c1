open Jt_isa

let data_in_code_threshold = 0.10

type verdict = Applicable | Broken_rewrite of string

(* The implicit dynamic loader is part of every process: include it in
   the analyzed closure like the registry-provided modules. *)
let with_ld_so registry =
  if
    List.exists
      (fun (m : Jt_obj.Objfile.t) -> String.equal m.name "ld.so")
      registry
  then registry
  else registry @ [ Jt_loader.Loader.ld_so ]

let closure ~registry ~main =
  let registry = with_ld_so registry in
  let mods = Retrowrite_like.closure ~registry ~main in
  (* every module implicitly depends on the loader *)
  let ld = List.find (fun (m : Jt_obj.Objfile.t) -> String.equal m.name "ld.so") registry in
  if List.memq ld mods then mods else ld :: mods

(* Fraction of non-padding code-section bytes the static disassembly
   could not decode: embedded data.  Zero bytes are alignment padding and
   don't confuse a rewriter; everything else that isn't an instruction
   does.  Past the threshold, the rewriter produces a broken binary. *)
let data_in_code_fraction (m : Jt_obj.Objfile.t) =
  let d = Jt_disasm.Disasm.run m in
  let covered = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun a (i : Jt_disasm.Disasm.insn_info) ->
      for k = 0 to i.d_len - 1 do
        Hashtbl.replace covered (a + k) ()
      done)
    d.insns;
  let uncovered = ref 0 and total = ref 0 in
  List.iter
    (fun (s : Jt_obj.Section.t) ->
      String.iteri
        (fun o c ->
          if c <> '\x00' then begin
            incr total;
            if not (Hashtbl.mem covered (s.vaddr + o)) then incr uncovered
          end)
        s.data)
    (Jt_obj.Objfile.code_sections m);
  if !total = 0 then 0.0 else float_of_int !uncovered /. float_of_int !total

let applicability ~registry ~main =
  let rec check = function
    | [] -> Applicable
    | (m : Jt_obj.Objfile.t) :: rest ->
      if data_in_code_fraction m > data_in_code_threshold then
        Broken_rewrite m.name
      else check rest
  in
  check (closure ~registry ~main)

type mod_sets = {
  bc_mod : Jt_obj.Objfile.t;
  scan_targets : (int, unit) Hashtbl.t;  (** link-time; scan ∩ insn boundary *)
  ret_targets : (int, unit) Hashtbl.t;  (** call-preceded instructions *)
}

let analyze_module (m : Jt_obj.Objfile.t) =
  let d = Jt_disasm.Disasm.run m in
  let scan_targets = Hashtbl.create 64 in
  (* BinCFI disassembles speculatively from scanned constants, so values
     that decode plausibly count as boundaries even when recursive
     traversal never reached them. *)
  List.iter
    (fun v ->
      if
        Jt_disasm.Disasm.is_insn_boundary d v
        || Jt_disasm.Disasm.speculative_insn_boundary m v
      then Hashtbl.replace scan_targets v ())
    (Jt_disasm.Disasm.scan_code_pointers m);
  (* exported entries are always valid targets *)
  List.iter
    (fun (s : Jt_obj.Symbol.t) ->
      if Jt_obj.Symbol.is_func s then Hashtbl.replace scan_targets s.vaddr ())
    (Jt_obj.Objfile.exported_symbols m);
  (* BinCFI special-cases the PLT: stub and lazy entries are reached
     through loader-initialized GOT slots, never through scanned
     constants. *)
  List.iter
    (fun (imp : Jt_obj.Objfile.import) ->
      match imp.imp_plt with
      | Some stub ->
        Hashtbl.replace scan_targets stub ();
        (match Jt_obj.Objfile.find_symbol m (imp.imp_sym ^ "@plt.lazy") with
        | Some s -> Hashtbl.replace scan_targets s.vaddr ()
        | None -> ())
      | None -> ())
    m.imports;
  let ret_targets = Hashtbl.create 64 in
  Hashtbl.iter
    (fun a (info : Jt_disasm.Disasm.insn_info) ->
      match Insn.cti_kind info.d_insn with
      | Some (Insn.Cti_call _ | Insn.Cti_call_ind) ->
        Hashtbl.replace ret_targets (a + info.d_len) ()
      | _ -> ())
    d.insns;
  { bc_mod = m; scan_targets; ret_targets }

type rt_sets = {
  rs : (Jt_loader.Loader.loaded * mod_sets) list;
}

(* Static rewriting constrains transfers into code it rewrote; a target
   outside every rewritten module (dlopen'd binaries the rewriter never
   saw, or generated code) is out of its jurisdiction and passes
   through — part of why its coverage is incomplete. *)
let in_rewritten rts target =
  List.exists (fun (l, _) -> Jt_loader.Loader.contains l target) rts.rs

let forward_ok rts target =
  (not (in_rewritten rts target))
  || List.exists
       (fun ((l : Jt_loader.Loader.loaded), s) ->
         Jt_loader.Loader.contains l target
         && Hashtbl.mem s.scan_targets (Jt_loader.Loader.link_addr l target))
       rts.rs

let ret_ok rts target =
  target = Jt_vm.Vm.sentinel
  || (not (in_rewritten rts target))
  || List.exists
       (fun ((l : Jt_loader.Loader.loaded), s) ->
         Jt_loader.Loader.contains l target
         && Hashtbl.mem s.ret_targets (Jt_loader.Loader.link_addr l target))
       rts.rs

let run ?(fuel = 200_000_000) ~registry ~main () =
  match applicability ~registry ~main with
  | Broken_rewrite _ as v -> Error v
  | Applicable ->
    let static_mods = closure ~registry ~main in
    let analyzed = List.map (fun m -> (m.Jt_obj.Objfile.name, analyze_module m)) static_mods in
    let rts = { rs = [] } in
    let rts = ref rts in
    let vm = Jt_vm.Vm.make ~registry in
    Jt_loader.Loader.on_load vm.loader (fun l ->
        match List.assoc_opt l.lmod.Jt_obj.Objfile.name analyzed with
        | Some s -> rts := { rs = (l, s) :: !rts.rs }
        | None -> ());
    Jt_vm.Vm.boot vm ~main;
    let covered at =
      List.exists (fun (l, _) -> Jt_loader.Loader.contains l at) !rts.rs
    in
    let in_ld_so at =
      match Jt_loader.Loader.module_at vm.loader at with
      | Some l -> String.equal l.lmod.Jt_obj.Objfile.name "ld.so"
      | None -> false
    in
    while vm.status = Jt_vm.Vm.Running do
      if vm.icount >= fuel then vm.status <- Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
      else if vm.pc = Jt_vm.Vm.sentinel then Jt_vm.Vm.advance_phase vm
      else
        match Jt_vm.Vm.fetch vm vm.pc with
        | None -> vm.status <- Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault vm.pc)
        | Some { d_insn = i; d_len = len; d_op } ->
          let at = vm.pc in
          (if covered at then
             match Insn.cti_kind i with
             | Some (Insn.Cti_call_ind | Insn.Cti_jmp_ind) ->
               Jt_vm.Vm.charge vm Jt_vm.Cost.bincfi_translation;
               let tgt =
                 match i with
                 | Insn.Call_ind (Some r, _) | Insn.Jmp_ind (Some r, _) ->
                   Jt_vm.Vm.get vm r
                 | Insn.Call_ind (None, Some m) | Insn.Jmp_ind (None, Some m) ->
                   Jt_mem.Memory.read32 vm.mem
                     (Jt_vm.Vm.eval_mem vm ~next_pc:(at + len) m)
                 | _ -> 0
               in
               if tgt <> Jt_vm.Vm.sentinel && not (forward_ok !rts tgt) then
                 Jt_vm.Vm.report_violation vm ~kind:"bincfi-forward" ~addr:tgt
             | Some Insn.Cti_ret ->
               Jt_vm.Vm.charge vm Jt_vm.Cost.bincfi_translation;
               let tgt = Jt_mem.Memory.read32 vm.mem (Jt_vm.Vm.get vm Reg.sp) in
               (* BinCFI patches the loader's resolver ret into a jump with
                  the (permissive) forward policy. *)
               if in_ld_so at then begin
                 if not (forward_ok !rts tgt || ret_ok !rts tgt) then
                   Jt_vm.Vm.report_violation vm ~kind:"bincfi-forward" ~addr:tgt
               end
               else if not (ret_ok !rts tgt) then
                 Jt_vm.Vm.report_violation vm ~kind:"bincfi-ret" ~addr:tgt
             | Some
                 ( Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_call _
                 | Insn.Cti_halt | Insn.Cti_syscall )
             | None ->
               ());
          d_op vm
    done;
    Ok (Jt_vm.Vm.result vm)

let static_air modules =
  let total = Jt_jcfi.Air.total_code_bytes modules in
  let analyzed = List.map analyze_module modules in
  let forward_size =
    float_of_int
      (List.fold_left (fun acc s -> acc + Hashtbl.length s.scan_targets) 0 analyzed)
  in
  let ret_size =
    float_of_int
      (List.fold_left (fun acc s -> acc + Hashtbl.length s.ret_targets) 0 analyzed)
  in
  let sizes = ref [] in
  List.iter
    (fun s ->
      let d = Jt_disasm.Disasm.run s.bc_mod in
      Hashtbl.iter
        (fun _ (info : Jt_disasm.Disasm.insn_info) ->
          match Insn.cti_kind info.d_insn with
          | Some (Insn.Cti_call_ind | Insn.Cti_jmp_ind) ->
            sizes := forward_size :: !sizes
          | Some Insn.Cti_ret -> sizes := ret_size :: !sizes
          | Some
              ( Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_call _ | Insn.Cti_halt
              | Insn.Cti_syscall )
          | None ->
            ())
        d.insns)
    analyzed;
  Jt_jcfi.Air.air ~sizes:!sizes ~total
