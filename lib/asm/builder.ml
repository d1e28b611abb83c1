open Jt_isa
open Jt_obj
open Sinsn

type item =
  | I of Sinsn.t
  | L of string
  | Bytes of string
  | Inline_table of string list

type func = { fname : string; exported : bool; body : item list }

type dinit =
  | Dbytes of string
  | Dword32 of int
  | Dfuncptr of string
  | Ddataptr of string
  | Dlabelptr of string * string
  | Dimportptr of string
  | Dspace of int

type data = { dname : string; dexported : bool; ro : bool; init : dinit list }

let func ?(exported = false) fname body = { fname; exported; body }

let data ?(exported = false) ?(ro = false) dname init =
  { dname; dexported = exported; ro; init }

exception Asm_error of string

let err fmt = Format.kasprintf (fun s -> raise (Asm_error s)) fmt

let resolver_sym = "__dl_resolve"
let ld_so_name = "ld.so"

let item_length = function
  | I i -> Sinsn.length i
  | L _ -> 0
  | Bytes s -> String.length s
  | Inline_table ls -> 4 * List.length ls

let align a x = (x + a - 1) / a * a

(* Collect references to imports.  Control-transfer uses need a PLT stub;
   all uses need a GOT slot. *)
let scan_imports funcs datas =
  let plt = ref [] and got = ref [] in
  let add lst s = if not (List.mem s !lst) then lst := s :: !lst in
  let scan_ref ~transfer = function
    | Rimport s ->
      add got s;
      if transfer then add plt s
    | Rlabel _ | Rfunc _ | Rdata _ | Raddr _ -> ()
  in
  let scan_mem m = match m.sdisp with Dgot s -> add got s | Dconst _ -> () | Daddr r -> scan_ref ~transfer:false r in
  let scan_operand = function
    | Sreg _ | Simm _ -> ()
    | Saddr r -> scan_ref ~transfer:true r
    (* taking the address of an import yields its PLT stub, as on x86 *)
  in
  let scan_insn = function
    | Snop | Shalt | Sret | Ssyscall _ | Sload_canary _ | Sneg _ | Snot _
    | Spop _ | Sjmp_ind_r _ | Scall_ind_r _ ->
      ()
    | Smov (_, o) | Sbinop (_, _, o) | Scmp (_, o) | Stest (_, o) | Spush o ->
      scan_operand o
    | Slea (_, m) | Sload (_, _, m) | Sjmp_ind_m m | Scall_ind_m m -> scan_mem m
    | Sstore (_, m, o) ->
      scan_mem m;
      scan_operand o
    | Sjmp r | Sjcc (_, r) | Scall r -> scan_ref ~transfer:true r
  in
  List.iter
    (fun f ->
      List.iter (function I i -> scan_insn i | L _ | Bytes _ | Inline_table _ -> ()) f.body)
    funcs;
  List.iter
    (fun d ->
      List.iter
        (function
          | Dimportptr s -> add got s
          | Dbytes _ | Dword32 _ | Dfuncptr _ | Ddataptr _ | Dlabelptr _ | Dspace _ -> ())
        d.init)
    datas;
  (List.rev !plt, List.rev !got)

(* PLT stub shape (fixed lengths):
     sym@plt:      jmp *[pc: got slot of sym]     (6 bytes)
     sym@plt.lazy: push <import-index>            (5 bytes)
                   jmp *[pc: got slot 0]          (6 bytes)
   padded to 20 bytes. *)
let plt_entry_size = 20
let plt_lazy_offset = 6

let u32_string v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (v land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.to_string b

let build ~name ~kind ?(symtab_level = Objfile.Full) ?(features = [])
    ?(deps = []) ?entry ?(init_funcs = [ func "_init" [ I Sret ] ])
    ?(fini_funcs = [ func "_fini" [ I Sret ] ]) ?(datas = []) text_funcs =
  let pic = kind <> Objfile.Exec_nonpic in
  let base = if pic then 0 else 0x0040_0000 in
  let all_funcs = init_funcs @ text_funcs @ fini_funcs in
  (match
     List.sort_uniq compare (List.map (fun f -> f.fname) all_funcs)
   with
  | names when List.length names <> List.length all_funcs ->
    err "module %s: duplicate function names" name
  | _ -> ());
  let plt_imports, got_imports = scan_imports all_funcs datas in
  let has_imports = got_imports <> [] in
  (* GOT slot order: resolver first, then every imported symbol. *)
  let got_syms = if has_imports then resolver_sym :: got_imports else [] in

  (* ---- layout ---- *)
  let cursor = ref base in
  let sec_start () = cursor := align 16 !cursor in

  let layout_funcs funcs =
    List.map
      (fun f ->
        cursor := align 4 !cursor;
        let fstart = !cursor in
        let labels = Hashtbl.create 8 in
        List.iter
          (fun it ->
            (match it with
            | L l ->
              if Hashtbl.mem labels l then
                err "%s/%s: duplicate label %s" name f.fname l;
              Hashtbl.add labels l !cursor
            | I _ | Bytes _ | Inline_table _ -> ());
            cursor := !cursor + item_length it)
          f.body;
        (f, fstart, !cursor - fstart, labels))
      funcs
  in

  sec_start ();
  let init_start = !cursor in
  let init_layout = layout_funcs init_funcs in
  let init_end = !cursor in

  sec_start ();
  let plt_start = !cursor in
  cursor := !cursor + (plt_entry_size * List.length plt_imports);
  let plt_end = !cursor in

  sec_start ();
  let text_start = !cursor in
  let text_layout = layout_funcs text_funcs in
  let text_end = !cursor in

  sec_start ();
  let fini_start = !cursor in
  let fini_layout = layout_funcs fini_funcs in
  let fini_end = !cursor in

  let dinit_length = function
    | Dbytes s -> String.length s
    | Dword32 _ | Dfuncptr _ | Ddataptr _ | Dlabelptr _ | Dimportptr _ -> 4
    | Dspace n -> n
  in
  let layout_datas ds =
    List.map
      (fun d ->
        cursor := align 4 !cursor;
        let dstart = !cursor in
        let sz = List.fold_left (fun a i -> a + dinit_length i) 0 d.init in
        cursor := !cursor + sz;
        (d, dstart, sz))
      ds
  in
  let ro_datas, rw_datas = List.partition (fun d -> d.ro) datas in
  sec_start ();
  let rodata_start = !cursor in
  let rodata_layout = layout_datas ro_datas in
  let rodata_end = !cursor in
  sec_start ();
  let data_start = !cursor in
  let data_layout = layout_datas rw_datas in
  let data_end = !cursor in
  sec_start ();
  let got_start = !cursor in
  cursor := !cursor + (4 * List.length got_syms);
  let got_end = !cursor in

  (* ---- symbol environment ---- *)
  let func_addr = Hashtbl.create 16 in
  let func_size = Hashtbl.create 16 in
  let func_labels = Hashtbl.create 16 in
  List.iter
    (fun (f, start, size, labels) ->
      Hashtbl.add func_addr f.fname start;
      Hashtbl.add func_size f.fname size;
      Hashtbl.add func_labels f.fname labels)
    (init_layout @ text_layout @ fini_layout);
  let data_addr = Hashtbl.create 16 in
  List.iter
    (fun (d, start, _) -> Hashtbl.add data_addr d.dname start)
    (rodata_layout @ data_layout);
  let plt_addr = Hashtbl.create 8 in
  List.iteri
    (fun i s -> Hashtbl.add plt_addr s (plt_start + (i * plt_entry_size)))
    plt_imports;
  let got_slot_addr = Hashtbl.create 8 in
  List.iteri (fun i s -> Hashtbl.add got_slot_addr s (got_start + (4 * i))) got_syms;

  let lookup tbl what k =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None -> err "module %s: unknown %s %s" name what k
  in
  let env_for fname =
    let labels = lookup func_labels "function" fname in
    let resolve = function
      | Rlabel l -> (
        match Hashtbl.find_opt labels l with
        | Some a -> a
        | None -> err "%s/%s: unknown label %s" name fname l)
      | Rfunc f -> lookup func_addr "function" f
      | Rdata d -> lookup data_addr "data object" d
      | Rimport s -> lookup plt_addr "PLT import" s
      | Raddr a -> a
    in
    let got_slot s = lookup got_slot_addr "GOT import" s in
    { Sinsn.resolve; got_slot }
  in

  (* ---- PIC legality checks ---- *)
  let check_pic_insn fname i =
    if not pic then ()
    else
      let bad_operand = function
        | Saddr (Rimport _) | Saddr (Raddr _) | Sreg _ | Simm _ -> ()
        (* &import resolves to the PLT stub; harmless because the stub
           address is produced via the GOT in real PIC — we model the
           result, not the sequence.  Raw addresses are the caller's
           business (used for syscall-returned regions). *)
        | Saddr (Rlabel _ | Rfunc _ | Rdata _) ->
          err "%s/%s: absolute address of local symbol in PIC code" name fname
      in
      let bad_mem (m : smem) =
        match (m.sdisp, m.sbase) with
        | (Daddr (Rlabel _ | Rfunc _ | Rdata _) | Dgot _), Some SBpc -> ()
        | (Daddr (Rlabel _ | Rfunc _ | Rdata _) | Dgot _), _ ->
          err "%s/%s: absolute data reference in PIC code" name fname
        | (Dconst _ | Daddr (Rimport _ | Raddr _)), _ -> ()
      in
      match i with
      | Smov (_, o) | Sbinop (_, _, o) | Scmp (_, o) | Stest (_, o) | Spush o ->
        bad_operand o
      | Slea (_, m) | Sload (_, _, m) | Sjmp_ind_m m | Scall_ind_m m -> bad_mem m
      | Sstore (_, m, o) ->
        bad_mem m;
        bad_operand o
      | Snop | Shalt | Sret | Ssyscall _ | Sload_canary _ | Sneg _ | Snot _
      | Spop _ | Sjmp_ind_r _ | Scall_ind_r _ | Sjmp _ | Sjcc _ | Scall _ ->
        ()
  in

  (* ---- encoding ---- *)
  let relocs = ref [] in
  let add_reloc r = relocs := r :: !relocs in

  let encode_funcs start layout =
    let buf = Buffer.create 1024 in
    let truth = ref [] in
    let pos () = start + Buffer.length buf in
    List.iter
      (fun (f, fstart, _, _) ->
        while pos () < fstart do
          Buffer.add_char buf '\x00'
        done;
        let env = env_for f.fname in
        List.iter
          (fun it ->
            let at = pos () in
            match it with
            | L _ -> ()
            | I si ->
              check_pic_insn f.fname si;
              let insn = Sinsn.concretize env ~at si in
              Encode.to_buffer buf ~at insn;
              truth := (at, Encode.length insn) :: !truth
            | Bytes s -> Buffer.add_string buf s
            | Inline_table labels ->
              List.iter
                (fun l ->
                  let target = env.resolve (Rlabel l) in
                  Buffer.add_string buf (u32_string target);
                  if pic then
                    add_reloc (Reloc.relative ~offset:(pos () - 4) target))
                labels)
          f.body)
      layout;
    (Buffer.contents buf, List.rev !truth)
  in

  let init_bytes, init_truth = encode_funcs init_start init_layout in
  let text_bytes, text_truth = encode_funcs text_start text_layout in
  let fini_bytes, fini_truth = encode_funcs fini_start fini_layout in

  (* PLT section bytes. *)
  let plt_bytes =
    let buf = Buffer.create 64 in
    List.iteri
      (fun i sym ->
        let stub = plt_start + (i * plt_entry_size) in
        let got_of s = lookup got_slot_addr "GOT import" s in
        let emit at si =
          let env = { Sinsn.resolve = (fun _ -> assert false); got_slot = got_of } in
          Encode.to_buffer buf ~at (Sinsn.concretize env ~at si)
        in
        let pcrel_got s = { sbase = Some SBpc; sindex = None; sscale = 1; sdisp = Dgot s } in
        emit stub (Sjmp_ind_m (pcrel_got sym));
        assert (Buffer.length buf = (i * plt_entry_size) + plt_lazy_offset);
        emit (stub + plt_lazy_offset) (Spush (Simm i));
        emit (stub + plt_lazy_offset + 5) (Sjmp_ind_m (pcrel_got resolver_sym));
        while Buffer.length buf < (i + 1) * plt_entry_size do
          Buffer.add_char buf '\x00'
        done)
      plt_imports;
    Buffer.contents buf
  in
  let plt_truth =
    List.concat
      (List.mapi
         (fun i _ ->
           let stub = plt_start + (i * plt_entry_size) in
           [ (stub, 6); (stub + 6, 5); (stub + 11, 6) ])
         plt_imports)
  in

  (* Data sections. *)
  let encode_datas start layout =
    let buf = Buffer.create 256 in
    let pos () = start + Buffer.length buf in
    List.iter
      (fun (d, dstart, _) ->
        while pos () < dstart do
          Buffer.add_char buf '\x00'
        done;
        List.iter
          (fun di ->
            match di with
            | Dbytes s -> Buffer.add_string buf s
            | Dword32 v -> Buffer.add_string buf (u32_string v)
            | Dspace n -> Buffer.add_string buf (String.make n '\x00')
            | Dfuncptr f ->
              let a = lookup func_addr "function" f in
              if pic then add_reloc (Reloc.relative ~offset:(pos ()) a);
              Buffer.add_string buf (u32_string a)
            | Ddataptr dn ->
              let a = lookup data_addr "data object" dn in
              if pic then add_reloc (Reloc.relative ~offset:(pos ()) a);
              Buffer.add_string buf (u32_string a)
            | Dlabelptr (f, l) ->
              let labels = lookup func_labels "function" f in
              let a =
                match Hashtbl.find_opt labels l with
                | Some a -> a
                | None -> err "%s: unknown label %s in %s" name l f
              in
              if pic then add_reloc (Reloc.relative ~offset:(pos ()) a);
              Buffer.add_string buf (u32_string a)
            | Dimportptr s ->
              add_reloc (Reloc.got ~offset:(pos ()) s);
              Buffer.add_string buf (u32_string 0))
          d.init)
      layout;
    Buffer.contents buf
  in
  let rodata_bytes = encode_datas rodata_start rodata_layout in
  let data_bytes = encode_datas data_start data_layout in

  (* GOT: zero-initialized; eager (non-PLT) imports get Rel_got relocs.
     Lazy slots are initialized by the loader from the import records. *)
  let got_bytes = String.make (got_end - got_start) '\x00' in
  List.iter
    (fun s ->
      if not (List.mem s plt_imports) && not (String.equal s resolver_sym) then
        add_reloc (Reloc.got ~offset:(Hashtbl.find got_slot_addr s) s))
    got_syms;
  if has_imports then
    add_reloc (Reloc.got ~offset:(Hashtbl.find got_slot_addr resolver_sym) resolver_sym);

  (* ---- assemble the module record ---- *)
  let sections =
    let mk name vaddr data is_code truth =
      if String.length data = 0 then None
      else Some (Section.make ~truth_code_ranges:truth ~name ~vaddr ~is_code data)
    in
    List.filter_map Fun.id
      [
        mk ".init" init_start init_bytes true init_truth;
        mk ".plt" plt_start plt_bytes true plt_truth;
        mk ".text" text_start text_bytes true text_truth;
        mk ".fini" fini_start fini_bytes true fini_truth;
        mk ".rodata" rodata_start rodata_bytes false [];
        mk ".data" data_start data_bytes false [];
        mk ".got" got_start got_bytes false [];
      ]
  in
  ignore init_end;
  ignore plt_end;
  ignore text_end;
  ignore fini_end;
  ignore rodata_end;
  ignore data_end;
  let symbols =
    List.map
      (fun f ->
        Symbol.make ~size:(Hashtbl.find func_size f.fname) ~exported:f.exported
          ~kind:Symbol.Func ~name:f.fname
          (Hashtbl.find func_addr f.fname))
      all_funcs
    @ List.concat
        (List.mapi
           (fun i s ->
             let stub = plt_start + (i * plt_entry_size) in
             [
               Symbol.make ~size:plt_entry_size ~kind:Symbol.Func
                 ~name:(s ^ "@plt") stub;
               Symbol.make
                 ~size:(plt_entry_size - plt_lazy_offset)
                 ~kind:Symbol.Func
                 ~name:(s ^ "@plt.lazy")
                 (stub + plt_lazy_offset);
             ])
           plt_imports)
    @ List.map
        (fun (d, start, size) ->
          Symbol.make ~size ~exported:d.dexported ~kind:Symbol.Object
            ~name:d.dname start)
        (rodata_layout @ data_layout)
  in
  let imports =
    List.map
      (fun s ->
        {
          Objfile.imp_sym = s;
          imp_got = Hashtbl.find got_slot_addr s;
          imp_plt = Hashtbl.find_opt plt_addr s;
        })
      got_syms
  in
  let exports =
    List.filter_map (fun f -> if f.exported then Some f.fname else None) all_funcs
    @ List.filter_map (fun d -> if d.dexported then Some d.dname else None) datas
  in
  let deps =
    let deps = if has_imports && not (String.equal name ld_so_name) then deps @ [ ld_so_name ] else deps in
    List.sort_uniq compare deps
  in
  let entry =
    match entry with
    | None -> None
    | Some e -> Some (lookup func_addr "entry function" e)
  in
  {
    Objfile.name;
    kind;
    sections;
    symbols;
    symtab_level;
    relocs = List.rev !relocs;
    imports;
    exports;
    deps;
    entry;
    features;
  }

module Dsl = struct
  let nop = I Snop
  let halt = I Shalt
  let ret = I Sret
  let label l = L l
  let mov rd rs = I (Smov (rd, Sreg rs))
  let movi rd v = I (Smov (rd, Simm v))

  let addr_of_func ~pic rd f =
    if pic then
      I (Slea (rd, { sbase = Some SBpc; sindex = None; sscale = 1; sdisp = Daddr (Rfunc f) }))
    else I (Smov (rd, Saddr (Rfunc f)))

  let addr_of_data ~pic rd d =
    if pic then
      I (Slea (rd, { sbase = Some SBpc; sindex = None; sscale = 1; sdisp = Daddr (Rdata d) }))
    else I (Smov (rd, Saddr (Rdata d)))

  let addr_of_label ~pic rd l =
    if pic then
      I (Slea (rd, { sbase = Some SBpc; sindex = None; sscale = 1; sdisp = Daddr (Rlabel l) }))
    else I (Smov (rd, Saddr (Rlabel l)))

  let lea rd m = I (Slea (rd, m))
  let ld rd m = I (Sload (Insn.W4, rd, m))
  let ldb rd m = I (Sload (Insn.W1, rd, m))
  let st m rs = I (Sstore (Insn.W4, m, Sreg rs))
  let stb m rs = I (Sstore (Insn.W1, m, Sreg rs))
  let sti m v = I (Sstore (Insn.W4, m, Simm v))
  let binop op rd rs = I (Sbinop (op, rd, Sreg rs))
  let binopi op rd v = I (Sbinop (op, rd, Simm v))
  let add rd rs = binop Insn.Add rd rs
  let addi rd v = binopi Insn.Add rd v
  let sub rd rs = binop Insn.Sub rd rs
  let subi rd v = binopi Insn.Sub rd v
  let muli rd v = binopi Insn.Mul rd v
  let xor rd rs = binop Insn.Xor rd rs
  let andi rd v = binopi Insn.And rd v
  let shli rd v = binopi Insn.Shl rd v
  let shri rd v = binopi Insn.Shr rd v
  let cmp ra rb = I (Scmp (ra, Sreg rb))
  let cmpi ra v = I (Scmp (ra, Simm v))
  let testi ra v = I (Stest (ra, Simm v))
  let push r = I (Spush (Sreg r))
  let pop r = I (Spop r)
  let jmp l = I (Sjmp (Rlabel l))
  let jcc c l = I (Sjcc (c, Rlabel l))
  let call f = I (Scall (Rfunc f))
  let call_import f = I (Scall (Rimport f))
  let call_reg r = I (Scall_ind_r r)
  let jmp_reg r = I (Sjmp_ind_r r)
  let syscall n = I (Ssyscall n)
  let load_canary r = I (Sload_canary r)

  let mem_b ?(disp = 0) r =
    { sbase = Some (SBreg r); sindex = None; sscale = 1; sdisp = Dconst disp }

  let mem_bi ?(disp = 0) ?(scale = 1) b i =
    { sbase = Some (SBreg b); sindex = Some i; sscale = scale; sdisp = Dconst disp }

  let mem_pc_data d =
    { sbase = Some SBpc; sindex = None; sscale = 1; sdisp = Daddr (Rdata d) }

  let mem_got s = { sbase = Some SBpc; sindex = None; sscale = 1; sdisp = Dgot s }
end

module Abi = struct
  open Dsl

  let gen_label =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf ".%s%d" prefix !n

  let frame_enter ?(canary = false) ~locals () =
    if canary && locals < 4 then err "frame_enter: canary needs >= 4 local bytes";
    [ push Reg.fp; mov Reg.fp Reg.sp; binopi Insn.Sub Reg.sp locals ]
    @
    if canary then
      [
        load_canary Reg.r5;
        st (mem_b ~disp:(-4) Reg.fp) Reg.r5;
        xor Reg.r5 Reg.r5;
      ]
    else []

  let frame_leave ?(canary = false) ~locals () =
    ignore locals;
    (if canary then
       let ok = gen_label "canary_ok" in
       [
         load_canary Reg.r5;
         ld Reg.r4 (mem_b ~disp:(-4) Reg.fp);
         cmp Reg.r4 Reg.r5;
         jcc Insn.Eq ok;
         I (Scall (Rimport "__stack_chk_fail"));
         label ok;
       ]
     else [])
    @ [ mov Reg.sp Reg.fp; pop Reg.fp; ret ]

  let local locals i = mem_b ~disp:(-locals + (4 * i)) Reg.fp
end
