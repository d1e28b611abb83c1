open Jt_isa
open Jt_obj

type insn_info = { d_addr : int; d_insn : Insn.t; d_len : int }

type t = {
  dmod : Objfile.t;
  insns : (int, insn_info) Hashtbl.t;
  leaders : int array;
  func_entries : int list;
  jump_tables : (int * int list) list;
}

(* Instructions are decoded straight from their section's bytes.  One
   that starts within [Decode.max_len] bytes of the section's end is
   decoded from a copy of the bytes that follow, read through
   [Objfile.byte_at], so it may run on into an abutting section. *)
let decode_in m (s : Section.t) a =
  let pos = a - s.vaddr and n = String.length s.data in
  if pos + Decode.max_len <= n then
    Decode.instr (Bytes.unsafe_of_string s.data) ~pos ~lim:n ~at:a
  else begin
    let b = Bytes.create Decode.max_len in
    let rec fill k =
      if k = Decode.max_len then k
      else
        match Objfile.byte_at m (a + k) with
        | Some v ->
          Bytes.set b k (Char.chr v);
          fill (k + 1)
        | None -> k
    in
    Decode.instr b ~pos:0 ~lim:(fill 0) ~at:a
  end

let in_code_section m a =
  match Objfile.section_at m a with Some s -> s.Section.is_code | None -> false

let read32_opt m a =
  match
    (Objfile.byte_at m a, Objfile.byte_at m (a + 1), Objfile.byte_at m (a + 2),
     Objfile.byte_at m (a + 3))
  with
  | Some b0, Some b1, Some b2, Some b3 ->
    Some (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24))
  | _ -> None

(* Per-register facts of one decode run: [value.(r)] is meaningful when
   bit [r] of [known] is set. *)
type regs = { value : int array; mutable known : int }

let regs () = { value = Array.make Reg.count 0; known = 0 }
let reg_get t r = if t.known land (1 lsl r) <> 0 then Some t.value.(r) else None

let reg_set t r v =
  t.value.(r) <- v;
  t.known <- t.known lor (1 lsl r)

let reg_forget t r = t.known <- t.known land lnot (1 lsl r)

(* Recover the targets of a memory-indirect jump of the shape
     mov/lea rb, <table>; ...; cmp ri, <n>; jugt/jgt <default>; ...
     jmp *[rb + ri*4]
   by reading n+1 table slots.  [consts] holds the registers' known
   constant values accumulated along the current decode run; [bounds]
   the latest compare-against-immediate seen for each register. *)
let recover_jump_table m ~consts ~bounds (mem : Insn.mem) =
  match (mem.base, mem.index, mem.scale, mem.disp) with
  | Some (Insn.Breg rb), Some ri, 4, 0 -> (
    match (reg_get consts (Reg.index rb), reg_get bounds (Reg.index ri)) with
    | Some table, Some n when n >= 0 && n < 4096 ->
      let entries = ref [] in
      (try
         for i = 0 to n do
           match read32_opt m (table + (4 * i)) with
           | Some v when in_code_section m v -> entries := v :: !entries
           | Some _ | None -> raise Exit
         done
       with Exit -> entries := []);
      List.rev !entries
    | _ -> [])
  | _ -> []

let run (m : Objfile.t) =
  (* The section that held the last address looked up: a decode run
     walks one section, so most lookups skip the scan of the section
     list.  It answers as [Objfile.section_at] does because sections
     are disjoint ([Jelf.read] rejects an overlap). *)
  let last = ref None in
  let section_of a =
    match !last with
    | Some s when Section.contains s a -> !last
    | _ ->
      let found = Objfile.section_at m a in
      if found <> None then last := found;
      found
  in
  let in_code a =
    match section_of a with Some s -> s.Section.is_code | None -> false
  in
  let decode a =
    match section_of a with Some s -> decode_in m s a | None -> None
  in
  (* One bucket per eight code bytes: a table holds two bindings per
     bucket before it grows and instructions average four to five and a
     half bytes, so the table starts as large as it will end, whatever
     the module's size. *)
  let code_bytes =
    List.fold_left (fun n s -> n + Section.size s) 0 (Objfile.code_sections m)
  in
  let insns = Hashtbl.create (code_bytes / 8) in
  let leaders = Hashtbl.create 256 in
  let func_entries = Hashtbl.create 64 in
  let jump_tables = ref [] in
  let worklist = Queue.create () in
  let add_leader a = if not (Hashtbl.mem leaders a) then Hashtbl.replace leaders a () in
  let seed_code a =
    if in_code a && not (Hashtbl.mem insns a) then Queue.add a worklist;
    if in_code a then add_leader a
  in
  let seed_func a =
    if in_code a then Hashtbl.replace func_entries a ();
    seed_code a
  in
  (* Seeds: entry point, visible function symbols, exported functions,
     PLT stubs (known from the never-stripped dynamic info), and the start
     of every executable section. *)
  (match m.entry with Some e -> seed_func e | None -> ());
  List.iter
    (fun (s : Symbol.t) -> if Symbol.is_func s then seed_func s.vaddr)
    (Objfile.visible_symbols m);
  List.iter
    (fun (s : Symbol.t) -> if Symbol.is_func s then seed_func s.vaddr)
    (Objfile.exported_symbols m);
  List.iter
    (fun (imp : Objfile.import) ->
      match imp.imp_plt with
      | Some p ->
        seed_func p;
        (* PLT layout is ABI knowledge: the lazy-binding entry directly
           follows the stub's one-instruction indirect jump, and is only
           ever reached through the GOT — seed it explicitly so stripped
           modules (no @plt.lazy symbols) still cover it. *)
        (match decode p with
        | Some (_, len) -> seed_func (p + len)
        | None -> ())
      | None -> ())
    m.imports;
  List.iter (fun (s : Section.t) -> seed_code s.vaddr) (Objfile.code_sections m);
  (* Decode a straight-line run from [start] until a block-ending
     instruction, an already-decoded address, or a decode failure.  The
     constant and bound tracking starts empty on every run. *)
  let consts = regs () and bounds = regs () in
  let decode_run start =
    consts.known <- 0;
    bounds.known <- 0;
    let pc = ref start in
    let stop = ref false in
    while not !stop do
      if Hashtbl.mem insns !pc || not (in_code !pc) then stop := true
      else
        match decode !pc with
        | None -> stop := true
        | Some (i, len) ->
          Hashtbl.replace insns !pc { d_addr = !pc; d_insn = i; d_len = len };
          let next = !pc + len in
          (* Track constants for jump-table recovery. *)
          (match i with
          | Insn.Mov (rd, Insn.Imm v) -> reg_set consts (Reg.index rd) v
          | Insn.Lea (rd, { base = Some Insn.Bpc; index = None; disp; _ }) ->
            reg_set consts (Reg.index rd) (Word.add next disp)
          | Insn.Cmp (r, Insn.Imm v) -> reg_set bounds (Reg.index r) v
          | Insn.Mov (rd, _) | Insn.Lea (rd, _) | Insn.Load (_, rd, _)
          | Insn.Binop (_, rd, _) | Insn.Neg rd | Insn.Not rd | Insn.Pop rd
          | Insn.Load_canary rd ->
            reg_forget consts (Reg.index rd);
            reg_forget bounds (Reg.index rd)
          | _ -> ());
          (match Insn.cti_kind i with
          | None | Some Insn.Cti_syscall -> ()
          | Some (Insn.Cti_jmp t) ->
            seed_code t;
            stop := true
          (* Fall through conditional branches and calls without ending
             the linear run: jump-table recovery needs the constant and
             bound tracking to survive the bounds-check branch that
             precedes every compiled switch. *)
          | Some (Insn.Cti_jcc (_, t)) ->
            seed_code t;
            add_leader next
          | Some (Insn.Cti_call t) ->
            seed_func t;
            add_leader next
          | Some Insn.Cti_call_ind -> add_leader next
          | Some Insn.Cti_jmp_ind ->
            (match i with
            | Insn.Jmp_ind (None, Some mem) ->
              let targets = recover_jump_table m ~consts ~bounds mem in
              if targets <> [] then begin
                jump_tables := (!pc, targets) :: !jump_tables;
                List.iter seed_code targets
              end
            | _ -> ());
            stop := true
          | Some (Insn.Cti_ret | Insn.Cti_halt) -> stop := true);
          pc := next
    done
  in
  while not (Queue.is_empty worklist) do
    decode_run (Queue.pop worklist)
  done;
  let leaders =
    let sorted = Array.make (Hashtbl.length leaders) 0 and k = ref 0 in
    Hashtbl.iter (fun a () -> sorted.(!k) <- a; incr k) leaders;
    Array.sort Int.compare sorted;
    sorted
  in
  {
    dmod = m;
    insns;
    leaders;
    func_entries =
      List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) func_entries []);
    jump_tables = !jump_tables;
  }

let is_insn_boundary t a = Hashtbl.mem t.insns a

let block_starts t = Array.to_list t.leaders

let code_stats t =
  let covered = Hashtbl.fold (fun _ i acc -> acc + i.d_len) t.insns 0 in
  let total =
    List.fold_left (fun acc s -> acc + Section.size s) 0 (Objfile.code_sections t.dmod)
  in
  (covered, total)

let pp_listing ppf (t : t) =
  let open Format in
  let m = t.dmod in
  let sym_at = Hashtbl.create 64 in
  List.iter
    (fun (s : Symbol.t) ->
      if not (Hashtbl.mem sym_at s.vaddr) then Hashtbl.add sym_at s.vaddr s.name)
    (Objfile.visible_symbols m @ Objfile.exported_symbols m);
  let hex_bytes a n =
    String.concat " "
      (List.init n (fun i ->
           match Objfile.byte_at m (a + i) with
           | Some b -> Printf.sprintf "%02x" b
           | None -> "??"))
  in
  List.iter
    (fun (s : Section.t) ->
      if s.is_code then begin
        fprintf ppf "@[<v>section %s:@," s.name;
        let a = ref s.vaddr in
        let stop = Section.end_vaddr s in
        while !a < stop do
          (match Hashtbl.find_opt sym_at !a with
          | Some name -> fprintf ppf "@,<%s>:@," name
          | None -> ());
          match Hashtbl.find_opt t.insns !a with
          | Some info ->
            fprintf ppf "  %08x:  %-24s  %s@," !a (hex_bytes !a info.d_len)
              (Insn.to_string info.d_insn);
            a := !a + info.d_len
          | None ->
            (* coalesce the undecoded (data / padding) run *)
            let start = !a in
            while !a < stop && not (Hashtbl.mem t.insns !a) do
              incr a
            done;
            fprintf ppf "  %08x:  (%d bytes of data)@," start (!a - start)
        done;
        fprintf ppf "@]@."
      end)
    m.sections

let speculative_insn_boundary (m : Objfile.t) addr =
  let rec go a k =
    k = 0
    ||
    match
      match Objfile.section_at m a with
      | Some s -> decode_in m s a
      | None -> None
    with
    | Some (i, len) -> Insn.ends_block i || go (a + len) (k - 1)
    | None -> false
  in
  in_code_section m addr && go addr 4

let scan_code_pointers (m : Objfile.t) =
  match Objfile.code_bounds m with
  | None -> []
  | Some (lo, hi) ->
    let hits = Hashtbl.create 256 in
    if Objfile.is_pic m then
      (* PIC modules are linked at base 0, so raw window values collide
         with every small constant.  As in the paper (section 4.2.1),
         position-independent code is scanned through its relocation
         information instead: every load-time-relocated slot that lands
         in a code section is a code pointer. *)
      List.iter
        (fun (r : Reloc.t) ->
          match r.kind with
          | Reloc.Rel_relative v -> if v >= lo && v < hi then Hashtbl.replace hits v ()
          | Reloc.Rel_got _ -> ())
        m.relocs
    else
      List.iter
        (fun (s : Section.t) ->
          let n = Section.size s in
          for o = 0 to n - 4 do
            let v =
              Char.code s.data.[o]
              lor (Char.code s.data.[o + 1] lsl 8)
              lor (Char.code s.data.[o + 2] lsl 16)
              lor (Char.code s.data.[o + 3] lsl 24)
            in
            if v >= lo && v < hi then Hashtbl.replace hits v ()
          done)
        m.sections;
    List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) hits [])
