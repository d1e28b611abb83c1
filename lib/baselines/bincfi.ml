open Jt_isa

let data_in_code_threshold = 0.10

type refusal = Broken_rewrite of string

(* Fraction of non-padding code-section bytes the static disassembly [d]
   of [m] could not decode: embedded data.  Zero bytes are alignment
   padding and don't confuse a rewriter; everything else that isn't an
   instruction does.  Past the threshold, the rewriter produces a broken
   binary. *)
let data_in_code_fraction (m : Jt_obj.Objfile.t) (d : Jt_disasm.Disasm.t) =
  (* one map byte per code byte of each code section, set where a
     decoded instruction covers it *)
  let secs =
    Array.of_list
      (List.map
         (fun (s : Jt_obj.Section.t) ->
           (s, Bytes.make (String.length s.data) '\000'))
         (Jt_obj.Objfile.code_sections m))
  in
  let section_of a =
    Array.find_opt
      (fun ((s : Jt_obj.Section.t), _) -> Jt_obj.Section.contains s a)
      secs
  in
  let rec cover a len =
    if len > 0 then
      match section_of a with
      | None -> cover (a + 1) (len - 1)
      | Some (s, map) ->
        let o = a - s.vaddr in
        let n = min len (Bytes.length map - o) in
        Bytes.fill map o n '\001';
        cover (a + n) (len - n)
  in
  Hashtbl.iter
    (fun a (i : Jt_disasm.Disasm.insn_info) -> cover a i.d_len)
    d.insns;
  let uncovered = ref 0 and total = ref 0 in
  Array.iter
    (fun ((s : Jt_obj.Section.t), map) ->
      String.iteri
        (fun o c ->
          if c <> '\x00' then begin
            incr total;
            if Bytes.get map o = '\000' then incr uncovered
          end)
        s.data)
    secs;
  if !total = 0 then 0.0 else float_of_int !uncovered /. float_of_int !total

type prep = {
  bc_data_in_code : float;
  bc_indirect : int;
  bc_returns : int;
  bc_scan_targets : (int, unit) Hashtbl.t;
  bc_ret_targets : (int, unit) Hashtbl.t;
}

let prepare_module (m : Jt_obj.Objfile.t) =
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
  let indirect = ref 0 and returns = ref 0 in
  Hashtbl.iter
    (fun a (info : Jt_disasm.Disasm.insn_info) ->
      match Insn.cti_kind info.d_insn with
      | Some (Insn.Cti_call _ | Insn.Cti_call_ind as k) ->
        Hashtbl.replace ret_targets (a + info.d_len) ();
        if k = Insn.Cti_call_ind then incr indirect
      | Some Insn.Cti_jmp_ind -> incr indirect
      | Some Insn.Cti_ret -> incr returns
      | Some
          ( Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_halt | Insn.Cti_syscall )
      | None ->
        ())
    d.insns;
  {
    bc_data_in_code = data_in_code_fraction m d;
    bc_indirect = !indirect;
    bc_returns = !returns;
    bc_scan_targets = scan_targets;
    bc_ret_targets = ret_targets;
  }

let prepared : prep Jt_ir.Rewrite_cache.kind = Jt_ir.Rewrite_cache.kind "bincfi"

let prepare m =
  Jt_ir.Rewrite_cache.find_or_compute prepared ~tool:"bincfi" m (fun () ->
      prepare_module m)

(* Each module of the closure (the implicit dynamic loader included)
   with its preparation, which the applicability check and the target
   sets both read. *)
let prepare_closure ~registry ~main =
  List.map
    (fun m -> (m, prepare m))
    (Janitizer.Driver.static_closure ~registry ~main)

let refusal_of prepared =
  List.find_map
    (fun ((m : Jt_obj.Objfile.t), p) ->
      if p.bc_data_in_code > data_in_code_threshold then
        Some (Broken_rewrite m.name)
      else None)
    prepared

let applicability ~registry ~main = refusal_of (prepare_closure ~registry ~main)

(* The rewritten modules now mapped. *)
type rt_sets = (Jt_loader.Loader.loaded * prep) Jt_loader.Loader.table

let in_rewritten (rts : rt_sets) at = Jt_loader.Loader.find rts at <> None

(* Static rewriting constrains transfers into code it rewrote; a target
   outside every rewritten module (dlopen'd binaries the rewriter never
   saw, or generated code) is out of its jurisdiction and passes
   through — part of why its coverage is incomplete. *)
let allowed targets (rts : rt_sets) target =
  match Jt_loader.Loader.find rts target with
  | Some (l, s) -> Hashtbl.mem (targets s) (Jt_loader.Loader.link_addr l target)
  | None -> true

let forward_ok = allowed (fun s -> s.bc_scan_targets)

let ret_ok rts target =
  target = Jt_vm.Vm.sentinel || allowed (fun s -> s.bc_ret_targets) rts target

let in_ld_so (vm : Jt_vm.Vm.t) at =
  match Jt_loader.Loader.module_at vm.loader at with
  | Some l -> String.equal l.lmod.Jt_obj.Objfile.name "ld.so"
  | None -> false

(* Each indirect transfer and return inside a rewritten module goes
   through the address-translation lookup, which enforces the policy
   before the transfer. *)
let instrument (rts : rt_sets) ~at i len op =
  match Jt_vm.Vm.compile_target ~next_pc:(at + len) i with
  | Some target ->
    fun vm ->
      if in_rewritten rts at then begin
        Jt_vm.Vm.charge vm Jt_vm.Cost.bincfi_translation;
        let tgt = target vm in
        if tgt <> Jt_vm.Vm.sentinel && not (forward_ok rts tgt) then
          Jt_vm.Vm.report_violation vm ~kind:"bincfi-forward" ~addr:tgt
      end;
      op vm
  | None -> (
    match (i : Insn.t) with
    | Ret ->
      fun vm ->
        if in_rewritten rts at then begin
          Jt_vm.Vm.charge vm Jt_vm.Cost.bincfi_translation;
          let tgt = Jt_mem.Memory.read32 vm.mem (Jt_vm.Vm.get vm Reg.sp) in
          (* BinCFI patches the loader's resolver ret into a jump with
             the (permissive) forward policy. *)
          if in_ld_so vm at then begin
            if not (forward_ok rts tgt || ret_ok rts tgt) then
              Jt_vm.Vm.report_violation vm ~kind:"bincfi-forward" ~addr:tgt
          end
          else if not (ret_ok rts tgt) then
            Jt_vm.Vm.report_violation vm ~kind:"bincfi-ret" ~addr:tgt
        end;
        op vm
    | _ -> op)

let run ?fuel ~registry ~main () =
  let prepared = prepare_closure ~registry ~main in
  match refusal_of prepared with
  | Some r -> Error r
  | None ->
    let by_name =
      List.map (fun ((m : Jt_obj.Objfile.t), p) -> (m.name, p)) prepared
    in
    let rts = Jt_loader.Loader.table () in
    let vm = Jt_vm.Vm.make ~instrument:(instrument rts) ~registry () in
    Jt_loader.Loader.track vm.loader rts (fun l ->
        Option.map
          (fun p -> (l, p))
          (List.assoc_opt l.lmod.Jt_obj.Objfile.name by_name));
    Jt_vm.Vm.boot vm ~main;
    Jt_vm.Vm.run ?fuel vm;
    Ok (Jt_vm.Vm.result vm)

(* Every indirect call or jump may reach any forward target, every
   return any call-preceded instruction. *)
let static_air modules =
  let total = Jt_jcfi.Air.total_code_bytes modules in
  let prepared = List.map prepare modules in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 prepared in
  let forward_size = float_of_int (sum (fun p -> Hashtbl.length p.bc_scan_targets))
  and ret_size = float_of_int (sum (fun p -> Hashtbl.length p.bc_ret_targets)) in
  let sizes =
    List.init (sum (fun p -> p.bc_indirect)) (fun _ -> forward_size)
    @ List.init (sum (fun p -> p.bc_returns)) (fun _ -> ret_size)
  in
  Jt_jcfi.Air.air ~sizes ~total
