open Jt_isa
module Codec = Jt_codec.Codec

type tool = Asan of { elide : bool } | Cfi of Jt_jcfi.Jcfi.config

let tool_tag = function
  | Asan { elide } -> Jt_jasan.Jasan.tag ~elide ()
  | Cfi config -> Jt_jcfi.Jcfi.tag config

type refusal =
  | Unsupported_feature of string * string
  | Overlapping_code of string * int
  | Unsound_fallthrough of string * int
  | Pin_collision of string * int * int
  | Pin_unsafe of string * int

let refusal_to_string = function
  | Unsupported_feature (m, what) -> Printf.sprintf "%s: unsupported feature: %s" m what
  | Overlapping_code (m, a) -> Printf.sprintf "%s: overlapping instructions at 0x%x" m a
  | Unsound_fallthrough (m, a) ->
    Printf.sprintf "%s: fall-through into unrecovered bytes at 0x%x" m a
  | Pin_collision (m, a, b) -> Printf.sprintf "%s: pins collide at 0x%x/0x%x" m a b
  | Pin_unsafe (m, a) -> Printf.sprintf "%s: cannot safely pin 0x%x" m a

exception Refused of refusal

(* ------------------------------------------------------------------ *)
(* The .emit.map section                                              *)
(* ------------------------------------------------------------------ *)

let text_section_name = ".emit.text"
let map_section_name = ".emit.map"

type map_insn = { mi_old : int; mi_new : int; mi_site : bool }

type emap = {
  em_digest : string;
  em_tool : string;
  em_text : int;
  em_insns : map_insn array;
  em_pins : (int * int) array;
}

let map_magic = "JEM1"

let map_version = 1

let encode_map (em : emap) =
  Codec.seal ~magic:map_magic ~version:map_version (fun b ->
      let open Codec.W in
      str U8 b em.em_digest;
      str U8 b em.em_tool;
      u32 b em.em_text;
      array U32
        (fun b mi ->
          u32 b mi.mi_old;
          u32 b mi.mi_new;
          bool b mi.mi_site)
        b em.em_insns;
      array U32
        (fun b (old, tgt) ->
          u32 b old;
          u32 b tgt)
        b em.em_pins)

let decode_map =
  Codec.unseal ~magic:map_magic ~version:map_version (fun r ->
      let open Codec.R in
      let em_digest = str U8 r in
      let em_tool = str U8 r in
      let em_text = u32 r in
      let em_insns =
        array U32 ~min:9
          (fun r ->
            let mi_old = u32 r in
            let mi_new = u32 r in
            { mi_old; mi_new; mi_site = bool r })
          r
      in
      let em_pins =
        array U32 ~min:8
          (fun r ->
            let old = u32 r in
            (old, u32 r))
          r
      in
      { em_digest; em_tool; em_text; em_insns; em_pins })

(* Each module object's decoded map: decoded (and its seal checked) on
   the first request, or handed over by the emitter that encoded it. *)
let maps : emap option Jt_obj.Objfile.Memo.t = Jt_obj.Objfile.Memo.create ()

let read_map (m : Jt_obj.Objfile.t) =
  Jt_obj.Objfile.Memo.find_or_add maps m (fun m ->
      match Jt_obj.Objfile.find_section m map_section_name with
      | None -> None
      | Some s -> Some (decode_map s.Jt_obj.Section.data))

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)
(* ------------------------------------------------------------------ *)

(* A relocated instruction may not fall through into bytes that are not
   the instruction's recovered successor: the copy's successor in
   [.emit.text] is the next recovered instruction, and if that is not
   also the native successor the rewrite would change behavior. *)
let falls_through (i : Insn.t) =
  match Insn.cti_kind i with
  | None -> true
  | Some (Insn.Cti_jmp _ | Insn.Cti_jmp_ind | Insn.Cti_ret | Insn.Cti_halt) ->
    false
  | Some Insn.Cti_syscall ->
    (* [syscall exit_] terminates the process: execution never reaches
       its successor, so relocating it next to unrelated bytes is safe
       (programs routinely end a section with it). *)
    (match i with Insn.Syscall n -> n <> Sysno.exit_ | _ -> true)
  | Some (Insn.Cti_jcc _ | Insn.Cti_call _ | Insn.Cti_call_ind) -> true

(* Does this rule materialize as a site?  The decision must be taken
   identically at emit time (link coordinates, original instruction) and
   at load time (run-time coordinates, relocated instruction); both
   [static_meta]s decide from the rule id and the instruction's shape
   only, and re-targeting never changes a constructor, so interpreting
   the rule against scratch runtimes and discarding the meta is an exact
   predictor. *)
let wants_site ~tool ~scratch_asan ~scratch_cfi (r : Jt_rules.Rules.t) ~at
    ~insn ~len =
  match tool with
  | Asan { elide } ->
    Option.is_some
      (Jt_jasan.Jasan.static_meta scratch_asan ~elide r ~at ~insn ~len)
  | Cfi _ ->
    Option.is_some
      (Jt_jcfi.Jcfi.static_meta scratch_cfi r ~at ~insn ~len ~pic_base:0)

let align_up a n = (a + n - 1) land lnot (n - 1)

let emit_module_exn ~tool ~(rules : Jt_rules.Rules.file)
    (sa : Janitizer.Static_analyzer.t) =
  let m = sa.Janitizer.Static_analyzer.sa_mod in
  let name = m.name in
  let dis = sa.Janitizer.Static_analyzer.sa_disasm in
  let recovered = dis.Jt_disasm.Disasm.insns in
  let insns =
    Hashtbl.fold (fun _ i acc -> i :: acc) recovered []
    |> List.sort (fun (a : Jt_disasm.Disasm.insn_info) b ->
           compare a.d_addr b.Jt_disasm.Disasm.d_addr)
  in
  (* Soundness of the linear relayout. *)
  let rec check_overlap = function
    | (a : Jt_disasm.Disasm.insn_info) :: (b :: _ as rest) ->
      if a.d_addr + a.d_len > b.Jt_disasm.Disasm.d_addr then
        raise (Refused (Overlapping_code (name, b.d_addr)));
      check_overlap rest
    | _ -> ()
  in
  check_overlap insns;
  List.iter
    (fun (i : Jt_disasm.Disasm.insn_info) ->
      if falls_through i.d_insn && not (Hashtbl.mem recovered (i.d_addr + i.d_len))
      then raise (Refused (Unsound_fallthrough (name, i.d_addr))))
    insns;
  (* First pass: layout.  [new_entry_of] maps each old instruction to
     the address control flow should enter — the site prefix when the
     instruction carries materialized checks. *)
  let rules_at = Jt_rules.Rules.Index.at_insn (Jt_rules.Rules.index rules) in
  let scratch_asan = Jt_jasan.Jasan.Rt.create () in
  let scratch_cfi =
    Jt_jcfi.Jcfi.Rt.create
      (match tool with Cfi c -> c | Asan _ -> Jt_jcfi.Jcfi.default_config)
  in
  let top =
    List.fold_left
      (fun acc s -> max acc (Jt_obj.Section.end_vaddr s))
      0 m.sections
  in
  let text_base = align_up top 0x1000 + 0x1000 in
  let new_entry_of = Hashtbl.create (List.length insns) in
  let has_site = Hashtbl.create 64 in
  let cursor = ref text_base in
  List.iter
    (fun (i : Jt_disasm.Disasm.insn_info) ->
      let site =
        List.exists
          (fun r ->
            wants_site ~tool ~scratch_asan ~scratch_cfi r ~at:i.d_addr
              ~insn:i.d_insn ~len:i.d_len)
          (rules_at i.d_addr)
      in
      Hashtbl.replace new_entry_of i.d_addr !cursor;
      if site then begin
        Hashtbl.replace has_site i.d_addr ();
        cursor := !cursor + Encode.length (Insn.Syscall Sysno.emit_site)
      end;
      cursor := !cursor + i.d_len)
    insns;
  (* Second pass: re-encode.  Direct branches whose target has a new
     home are re-pointed there (entering through the target's site, as
     the DBT does); PC-relative operands are re-displaced to keep
     addressing the old absolute location — data never moves, so
     code/data-ambiguous references stay correct by construction. *)
  let buf = Buffer.create (!cursor - text_base) in
  let remap t =
    match Hashtbl.find_opt new_entry_of t with
    | Some n -> Word.of_int n
    | None -> t
  in
  List.iter
    (fun (i : Jt_disasm.Disasm.insn_info) ->
      let entry = Hashtbl.find new_entry_of i.d_addr in
      let site = Hashtbl.mem has_site i.d_addr in
      if site then Encode.to_buffer buf ~at:entry (Insn.Syscall Sysno.emit_site);
      let new_at = if site then entry + 2 else entry in
      let old_next = i.d_addr + i.d_len and new_next = new_at + i.d_len in
      let fix_mem (mm : Insn.mem) =
        match mm.base with
        | Some Insn.Bpc ->
          let abs = Word.add (Word.of_int old_next) mm.disp in
          { mm with Insn.disp = Word.sub abs (Word.of_int new_next) }
        | _ -> mm
      in
      let i' =
        match i.d_insn with
        | Insn.Jmp t -> Insn.Jmp (remap t)
        | Insn.Jcc (c, t) -> Insn.Jcc (c, remap t)
        | Insn.Call t -> Insn.Call (remap t)
        | Insn.Lea (r, mm) -> Insn.Lea (r, fix_mem mm)
        | Insn.Load (w, r, mm) -> Insn.Load (w, r, fix_mem mm)
        | Insn.Store (w, mm, src) -> Insn.Store (w, fix_mem mm, src)
        | Insn.Jmp_ind (r, mo) -> Insn.Jmp_ind (r, Option.map fix_mem mo)
        | Insn.Call_ind (r, mo) -> Insn.Call_ind (r, Option.map fix_mem mo)
        | other -> other
      in
      let before = Buffer.length buf in
      Encode.to_buffer buf ~at:new_at i';
      if Buffer.length buf - before <> i.d_len then
        failwith
          (Printf.sprintf "Jt_emit: re-encoded length mismatch at 0x%x in %s"
             i.d_addr name))
    insns;
  (* The pin set: every address that may be reached through a value the
     rewriter cannot rewrite — data-borne code pointers, dynamic symbol
     resolution, jump-table slots — keeps its old address as a live hop
     to the new code. *)
  let in_code a =
    match Jt_obj.Objfile.section_at m a with
    | Some s -> s.Jt_obj.Section.is_code
    | None -> false
  in
  let wanted_pins =
    (match m.entry with Some e -> [ e ] | None -> [])
    @ List.filter_map
        (fun (s : Jt_obj.Symbol.t) ->
          if Jt_obj.Symbol.is_func s then Some s.vaddr else None)
        m.symbols
    @ Janitizer.Static_analyzer.function_entries sa
    @ List.concat_map snd dis.Jt_disasm.Disasm.jump_tables
    @ Janitizer.Static_analyzer.code_pointer_scan sa
    |> List.filter in_code |> List.sort_uniq compare
  in
  let patchable p =
    match (Hashtbl.find_opt recovered p, Jt_obj.Objfile.section_at m p) with
    | None, _ | _, None -> false
    | Some (info : Jt_disasm.Disasm.insn_info), Some s ->
      let send = Jt_obj.Section.end_vaddr s in
      (* Patch bytes that land inside the section must overwrite
         recovered instruction bytes only: spilling into undecoded bytes
         could clobber inline data (a jump table living between
         functions).  Bytes past the section end are fresh padding the
         patch phase appends — nothing else addresses them, so they are
         free as long as no other section occupies that range (think a
         lone [ret] in a 1-byte [.init]). *)
      let covered =
        info.d_len >= 2
        || p + info.d_len >= send
        || Hashtbl.mem recovered (p + info.d_len)
      in
      let tail_free =
        p + 2 <= send
        || not
             (List.exists
                (fun (s' : Jt_obj.Section.t) ->
                  s'.vaddr < p + 2 && send < Jt_obj.Section.end_vaddr s')
                m.sections)
      in
      covered && tail_free
  in
  (* An unpatchable pin (typically a lone [ret] in a 1-byte [.init] /
     [.fini] section, too small for the hop) can be *dropped* instead of
     refused when its entire function carries no instrumentation sites:
     execution entering there simply runs the original bytes — which are
     intact, since nothing was patched — at identical cost, until a
     call/jump reaches a patched pin and hops back into the new copy.
     If the function does have sites, dropping would silently skip
     checks, so it stays a refusal. *)
  let fn_site_free p =
    match Janitizer.Static_analyzer.fn_of_addr sa p with
    | None -> false
    | Some fa ->
      List.for_all
        (fun (b : Jt_cfg.Cfg.block) ->
          Array.for_all
            (fun (i : Jt_disasm.Disasm.insn_info) ->
              not (Hashtbl.mem has_site i.d_addr))
            b.b_insns)
        (Jt_cfg.Cfg.fn_blocks fa.Janitizer.Static_analyzer.fa_fn)
  in
  let pins =
    List.filter
      (fun p ->
        patchable p
        ||
        if fn_site_free p then false
        else raise (Refused (Pin_unsafe (name, p))))
      wanted_pins
  in
  let rec check_spacing = function
    | p1 :: (p2 :: _ as rest) ->
      if p2 - p1 < 2 then raise (Refused (Pin_collision (name, p1, p2)));
      check_spacing rest
    | _ -> ()
  in
  check_spacing pins;
  (* Patch the pins into the original code bytes.  The hop encoding is
     address-independent (opcode + syscall number), so one string fits
     every pin. *)
  let hop = Encode.encode ~at:0 (Insn.Syscall Sysno.emit_pin) in
  assert (String.length hop = 2);
  let patched =
    List.map
      (fun (s : Jt_obj.Section.t) ->
        if not s.is_code then s
        else begin
          let spins = List.filter (Jt_obj.Section.contains s) pins in
          let needed =
            List.fold_left
              (fun acc p -> max acc (p + 2))
              (Jt_obj.Section.end_vaddr s)
              spins
          in
          let b = Bytes.make (needed - s.vaddr) '\000' in
          Bytes.blit_string s.data 0 b 0 (String.length s.data);
          List.iter
            (fun p -> Bytes.blit_string hop 0 b (p - s.vaddr) 2)
            spins;
          { s with Jt_obj.Section.data = Bytes.to_string b }
        end)
      m.sections
  in
  let em =
    {
      em_digest = Jt_obj.Objfile.digest m;
      em_tool = tool_tag tool;
      em_text = text_base;
      em_insns =
        Array.of_list
          (List.map
             (fun (i : Jt_disasm.Disasm.insn_info) ->
               {
                 mi_old = i.d_addr;
                 mi_new = Hashtbl.find new_entry_of i.d_addr;
                 mi_site = Hashtbl.mem has_site i.d_addr;
               })
             insns);
      em_pins =
        Array.of_list
          (List.map (fun p -> (p, Hashtbl.find new_entry_of p)) pins);
    }
  in
  let text_data = Buffer.contents buf in
  let text_sec =
    Jt_obj.Section.make
      ~truth_code_ranges:[ (text_base, String.length text_data) ]
      ~name:text_section_name ~vaddr:text_base ~is_code:true text_data
  in
  let map_data = encode_map em in
  let map_vaddr = align_up (text_base + String.length text_data) 16 in
  let map_sec =
    Jt_obj.Section.make ~name:map_section_name ~vaddr:map_vaddr ~is_code:false
      map_data
  in
  let m' = { m with Jt_obj.Objfile.sections = patched @ [ text_sec; map_sec ] } in
  Jt_obj.Objfile.Memo.add maps m' (Some em);
  m'

let emit_module ~tool ~rules (sa : Janitizer.Static_analyzer.t) =
  let m = sa.Janitizer.Static_analyzer.sa_mod in
  if
    rules.Jt_rules.Rules.rf_digest <> ""
    && not (String.equal rules.rf_digest (Jt_obj.Objfile.digest m))
  then invalid_arg "Jt_emit.emit_module: rules digest does not match module";
  if Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Cxx_exceptions then
    Error (Unsupported_feature (m.name, "C++ exception tables"))
  else if Jt_obj.Objfile.has_feature m Jt_obj.Objfile.Fortran_runtime then
    Error (Unsupported_feature (m.name, "Fortran runtime"))
  else
    match emit_module_exn ~tool ~rules sa with
    | m' -> Ok m'
    | exception Refused r -> Error r

(* ------------------------------------------------------------------ *)
(* The emit runtime                                                   *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable st_sites : int;
  mutable st_pins : int;
  mutable st_check_cost : int;
}

(* Each emitted module's sites and pins in link coordinates, kept beside
   the module object like its map: a site's syscall address -> the
   original address its rules are anchored at, a pin's old address -> its
   relocated target. *)
type sites = { s_sites : (int, int) Hashtbl.t; s_pins : (int, int) Hashtbl.t }

let site_tables : sites Jt_obj.Objfile.Memo.t = Jt_obj.Objfile.Memo.create ()

let sites_of m (em : emap) =
  Jt_obj.Objfile.Memo.find_or_add site_tables m (fun _ ->
      let s_sites = Hashtbl.create 64 and s_pins = Hashtbl.create 64 in
      Array.iter
        (fun mi -> if mi.mi_site then Hashtbl.replace s_sites mi.mi_new mi.mi_old)
        em.em_insns;
      Array.iter (fun (old, tgt) -> Hashtbl.replace s_pins old tgt) em.em_pins;
      { s_sites; s_pins })

(* A loaded emitted module: its site tables, its emitted text and the
   index of its rule file. *)
type row = {
  rw_loaded : Jt_loader.Loader.loaded;
  rw_sites : sites;
  rw_text : Jt_obj.Section.t;
  rw_rules : Jt_rules.Rules.index;
}

type runtime = {
  r_tool : tool;
  r_stats : stats;
  r_asan : Jt_jasan.Jasan.Rt.t option;
  r_cfi : Jt_jcfi.Jcfi.Rt.t option;
  r_modules : row Jt_loader.Loader.table;
}

let runtime tool =
  {
    r_tool = tool;
    r_stats = { st_sites = 0; st_pins = 0; st_check_cost = 0 };
    r_asan =
      (match tool with Asan _ -> Some (Jt_jasan.Jasan.Rt.create ()) | Cfi _ -> None);
    r_cfi = (match tool with Cfi c -> Some (Jt_jcfi.Jcfi.Rt.create c) | Asan _ -> None);
    r_modules = Jt_loader.Loader.table ();
  }

let syscall_cost = Jt_vm.Cost.insn (Insn.Syscall 0)
let jmp_cost = Jt_vm.Cost.insn (Insn.Jmp 0)

(* The metas of the site whose syscall is at run-time address [at]: its
   rules, read at the original address, interpreted at the anchor
   instruction that follows the 2-byte syscall. *)
let site_metas rt (r : row) ~at ~old =
  let l = r.rw_loaded in
  let m = l.Jt_loader.Loader.lmod in
  let anchor = at + 2 in
  match Jt_disasm.Disasm.decode_in m r.rw_text (Jt_loader.Loader.link_addr l anchor) with
  | None -> failwith "Jt_emit: undecodable instruction at emitted site"
  | Some (insn, len) -> (
    let pic_base = if Jt_obj.Objfile.is_pic m then l.base else 0 in
    let metas =
      List.filter_map
        (fun rule ->
          match rt.r_tool with
          | Asan { elide } ->
            Jt_jasan.Jasan.static_meta (Option.get rt.r_asan) ~elide rule
              ~at:anchor ~insn ~len
          | Cfi _ ->
            Jt_jcfi.Jcfi.static_meta (Option.get rt.r_cfi) rule ~at:anchor
              ~insn ~len ~pic_base)
        (Jt_rules.Rules.Index.at_insn r.rw_rules old)
    in
    match metas with
    | [] -> failwith "Jt_emit: materialized site with no checks"
    | _ -> metas)

(* The VM's decode-time wrapper: it binds an [emit_site] or [emit_pin]
   syscall to its module's tables when the syscall is decoded.  The
   wrapped op retires the syscall (its hook does nothing), then a site
   replaces the syscall's charge with its metas' exact hybrid-DBT cost
   and runs their actions, falling through into the anchor instruction,
   and a pin charges one direct jump and jumps to its target. *)
let instrument rt ~at (i : Insn.t) _ (op : Jt_vm.Vm.op) : Jt_vm.Vm.op =
  let abort why vm =
    op vm;
    vm.Jt_vm.Vm.status <- Jt_vm.Vm.Aborted why
  in
  let find part =
    match Jt_loader.Loader.find rt.r_modules at with
    | Some r -> (
      match
        Hashtbl.find_opt (part r.rw_sites) (Jt_loader.Loader.link_addr r.rw_loaded at)
      with
      | Some v -> Some (r, v)
      | None -> None)
    | None -> None
  in
  let stats = rt.r_stats in
  match i with
  | Insn.Syscall n when n = Sysno.emit_site -> (
    match find (fun s -> s.s_sites) with
    | None -> abort "emit: unmapped instrumentation site"
    | Some (r, old) ->
      let metas = site_metas rt r ~at ~old in
      let cost =
        List.fold_left (fun acc (mt : Jt_dbt.Dbt.meta) -> acc + mt.m_cost) 0 metas
      in
      let actions = List.filter_map (fun (mt : Jt_dbt.Dbt.meta) -> mt.m_action) metas in
      fun vm ->
        op vm;
        stats.st_sites <- stats.st_sites + 1;
        stats.st_check_cost <- stats.st_check_cost + cost;
        Jt_vm.Vm.charge vm (cost - syscall_cost);
        List.iter (fun f -> f vm) actions)
  | Syscall n when n = Sysno.emit_pin -> (
    match find (fun s -> s.s_pins) with
    | None -> abort "emit: unmapped pin"
    | Some (r, tgt) ->
      let tgt = Jt_loader.Loader.runtime_addr r.rw_loaded tgt in
      fun vm ->
        op vm;
        stats.st_pins <- stats.st_pins + 1;
        (* A pinned entry is morally a direct jump to the relocated
           code; charge it as one. *)
        Jt_vm.Vm.charge vm (jmp_cost - syscall_cost);
        vm.Jt_vm.Vm.pc <- tgt)
  | _ -> op

(* Install the runtime on a fresh VM, before [Vm.boot]: the rows of the
   emitted modules, the CFI target tables, and the two no-op hooks the
   bound syscalls retire through. *)
let attach rt ~rules_for (vm : Jt_vm.Vm.t) =
  Option.iter (fun art -> Jt_jasan.Jasan.Rt.attach art vm) rt.r_asan;
  let loader = vm.Jt_vm.Vm.loader in
  let rules_of (m : Jt_obj.Objfile.t) =
    match rules_for m.name with
    | Some f -> f
    | None -> failwith ("Jt_emit: no rules for emitted module " ^ m.name)
  in
  (* A module that was not emitted (a skipped dlopen plugin) has no
     sites, but CFI still needs its target table: the same
     runtime-constructed fallback the hybrid uses for modules without
     static rules. *)
  Option.iter
    (fun crt ->
      Jt_loader.Loader.track loader (Jt_jcfi.Jcfi.Rt.targets crt) (fun l ->
          let m = l.Jt_loader.Loader.lmod in
          Some
            (Jt_jcfi.Jcfi.module_targets l
               (Option.map
                  (fun _ -> rules_of m)
                  (Jt_obj.Objfile.find_section m map_section_name)))))
    rt.r_cfi;
  Jt_loader.Loader.track loader rt.r_modules (fun l ->
      let m = l.lmod in
      Option.map
        (fun em ->
          let rules = rules_of m in
          (* The map records the digest of the *original* module; applying
             a rule file computed from a different build would interpret
             checks at meaningless addresses. *)
          if
            rules.Jt_rules.Rules.rf_digest <> ""
            && not (String.equal rules.rf_digest em.em_digest)
          then failwith ("Jt_emit: rule/map digest mismatch for " ^ m.name);
          {
            rw_loaded = l;
            rw_sites = sites_of m em;
            rw_text = Option.get (Jt_obj.Objfile.find_section m text_section_name);
            rw_rules = Jt_rules.Rules.index rules;
          })
        (read_map m));
  Jt_vm.Vm.set_syscall_hook vm Sysno.emit_site ignore;
  Jt_vm.Vm.set_syscall_hook vm Sysno.emit_pin ignore

(* ------------------------------------------------------------------ *)
(* Whole programs                                                     *)
(* ------------------------------------------------------------------ *)

type program = {
  p_tool : tool;
  p_main : string;
  p_registry : Jt_obj.Objfile.t list;
  p_rules : (string * Jt_rules.Rules.file) list;
  p_emitted : string list;
  p_skipped : (string * refusal) list;
}

let driver_tool = function
  | Asan { elide } -> fst (Jt_jasan.Jasan.create ~elide ())
  | Cfi config -> fst (Jt_jcfi.Jcfi.create ~config ())

exception Stop of string * refusal

(* A shared object's rule file and emission, per tool tag. *)
let emitted_shared :
    (Jt_rules.Rules.file * (Jt_obj.Objfile.t, refusal) result)
    Jt_ir.Rewrite_cache.kind =
  Jt_ir.Rewrite_cache.kind "emit"

let emit_program ?store ~tool ~registry ~main () =
  let closure = Janitizer.Driver.static_closure ~registry ~main in
  let in_closure n =
    List.exists (fun (c : Jt_obj.Objfile.t) -> String.equal c.name n) closure
  in
  let extras =
    List.filter (fun (m : Jt_obj.Objfile.t) -> not (in_closure m.name)) registry
  in
  (* Extras are analyzed too: a dlopen-only plugin gets static rules —
     and an emitted body — even though the hybrid driver would only reach
     it through the dynamic fallback.  Each module is analyzed once; the
     one analysis feeds both the tool's static pass and the rewriter.  A
     shared object is rewritten once per process and tool tag: later
     programs reuse its rule file and emitted body. *)
  let static = (driver_tool tool).Janitizer.Tool.t_static in
  let rule_files = ref [] in
  let emit1 (m : Jt_obj.Objfile.t) =
    let rules, emitted =
      Jt_ir.Rewrite_cache.find_or_compute emitted_shared ~tool:(tool_tag tool) m
        (fun () ->
          let sa = Janitizer.Static_analyzer.analyze ?store m in
          let rules = static sa in
          (rules, emit_module ~tool ~rules sa))
    in
    rule_files := (m.name, rules) :: !rule_files;
    emitted
  in
  match
    let emitted = Hashtbl.create 8 in
    let skipped = ref [] in
    List.iter
      (fun (m : Jt_obj.Objfile.t) ->
        match emit1 m with
        | Ok m' -> Hashtbl.replace emitted m.name m'
        | Error r -> raise (Stop (m.name, r)))
      closure;
    List.iter
      (fun (m : Jt_obj.Objfile.t) ->
        match emit1 m with
        | Ok m' -> Hashtbl.replace emitted m.name m'
        | Error r -> skipped := (m.name, r) :: !skipped)
      extras;
    (emitted, List.rev !skipped)
  with
  | exception Stop (n, r) -> Error (n, r)
  | emitted, skipped ->
    let substituted =
      List.map
        (fun (m : Jt_obj.Objfile.t) ->
          Option.value ~default:m (Hashtbl.find_opt emitted m.name))
        registry
    in
    (* The loader only adds its synthetic ld.so when the registry lacks
       one, so the emitted ld.so must be appended explicitly to be the
       one that loads. *)
    let registry' =
      if
        List.exists
          (fun (m : Jt_obj.Objfile.t) -> String.equal m.name "ld.so")
          substituted
      then substituted
      else
        substituted
        @ (match Hashtbl.find_opt emitted "ld.so" with
          | Some l -> [ l ]
          | None -> [])
    in
    Ok
      {
        p_tool = tool;
        p_main = main;
        p_registry = registry';
        p_rules = List.rev !rule_files;
        p_emitted =
          Hashtbl.fold (fun k _ acc -> k :: acc) emitted []
          |> List.sort compare;
        p_skipped = skipped;
      }

type run_outcome = {
  ro_outcome : Janitizer.Driver.outcome;
  ro_sites : int;
  ro_pins : int;
  ro_check_cost : int;
}

let run ?fuel (p : program) =
  let rt = runtime p.p_tool in
  let o =
    Janitizer.Driver.run_plain ?fuel ~instrument:(instrument rt)
      ~setup:(attach rt ~rules_for:(fun n -> List.assoc_opt n p.p_rules))
      ~registry:p.p_registry ~main:p.p_main ()
  in
  {
    ro_outcome = o;
    ro_sites = rt.r_stats.st_sites;
    ro_pins = rt.r_stats.st_pins;
    ro_check_cost = rt.r_stats.st_check_cost;
  }
