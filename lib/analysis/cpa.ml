open Jt_isa
open Jt_cfg

(* Code-pointer provenance analysis (CPA): for every indirect call site,
   a sound over-approximation of the function entries its operand can
   hold — or Top when the pointer's provenance cannot be bounded.

   Values form the finite lattice

       Bot  <=  Entries S  <=  Top        (S a set of function entries)

   seeded wherever a tracked entry address is materialized (immediate
   moves, pc-relative/absolute leas, loads of in-image code-pointer
   tables) and transferred through register copies and the function's
   entry-sp-relative stack slots (spill/reload), with VSA supplying the
   address algebra.  Anything unproven — including a set growing past
   [max_set] — degrades to Top, never to a dropped target: consumers
   (the per-site CFI policy, the call-graph, the interprocedural
   summaries) must fall back to their coarse behavior on Top.

   Soundness assumptions, documented in DESIGN.md §16 and continuously
   gated by the runtime refinement oracle (every dynamically observed
   indirect-call target must be in its site's set):
   - in-image tables read by the table rule are not mutated at run time
     (the benign-program assumption behind BinCFI-style scans);
   - stores through [Cst] (non-stack) addresses do not alias the
     function's entry-sp-relative slots, mirroring VSA's own
     Sprel/Cst region separation. *)

let max_set = 16

module Iset = Set.Make (Int)

type value = Bot | Entries of Iset.t * int (* seed witness *) | Top

let join_value a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Top, _ | _, Top -> Top
  | Entries (sa, wa), Entries (sb, wb) ->
    let s = Iset.union sa sb in
    if Iset.cardinal s > max_set then Top else Entries (s, min wa wb)

let equal_value a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Entries (sa, wa), Entries (sb, wb) -> wa = wb && Iset.equal sa sb
  | _ -> false

(* Abstract state: the register file plus the entry-sp-relative 4-byte
   stack slots known to hold a tracked value.  A slot absent from the
   map is unknown (Top); the map is sorted by offset so equality and
   join are canonical. *)
type state = { regs : value array; slots : (int * value) list }

let state_equal a b =
  (try Array.for_all2 equal_value a.regs b.regs with Invalid_argument _ -> false)
  && List.length a.slots = List.length b.slots
  && List.for_all2
       (fun (oa, va) (ob, vb) -> oa = ob && equal_value va vb)
       a.slots b.slots

(* Slots: a key unknown on either side is unknown after the join. *)
let join_slots a b =
  List.filter_map
    (fun (o, va) ->
      match List.assoc_opt o b with
      | Some vb -> (
        match join_value va vb with Top -> None | v -> Some (o, v))
      | None -> None)
    a

let join_state a b =
  { regs = Array.map2 join_value a.regs b.regs; slots = join_slots a.slots b.slots }

module Lattice = struct
  type t = state

  let equal = state_equal
  let join = join_state

  (* Chains are finite: sets only grow towards the [max_set] cap and
     then snap to Top, slot maps only shrink. *)
  let widen = join_state
end

module Solver = Dataflow.Make (Lattice)

type site = {
  cs_fn : int;
  cs_site : int;
  cs_targets : int list option;  (** sorted entries; [None] = Top *)
  cs_witness : int;  (** seeding instruction address; 0 when Top *)
}

type t = { sites : site list; by_site : (int, site) Hashtbl.t }

let of_sites sites =
  let by_site = Hashtbl.create (max 16 (List.length sites)) in
  List.iter (fun s -> Hashtbl.replace by_site s.cs_site s) sites;
  { sites; by_site }

let sites t = t.sites

let site_targets t site =
  match Hashtbl.find_opt t.by_site site with
  | Some { cs_targets = Some ts; cs_witness = w; _ } -> Some (ts, w)
  | _ -> None

let resolve t site =
  match Hashtbl.find_opt t.by_site site with
  | Some { cs_targets = Some ts; _ } -> Some ts
  | _ -> None

let export t = t.sites
let import sites = of_sites sites

(* ---- the analysis ---- *)

let caller_saved_idx =
  List.map Reg.index Reg.caller_saved

let read_word (m : Jt_obj.Objfile.t) addr =
  let b k = Jt_obj.Objfile.byte_at m (addr + k) in
  match (b 0, b 1, b 2, b 3) with
  | Some b0, Some b1, Some b2, Some b3 ->
    Some (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24))
  | _ -> None

(* Bounded table enumeration: at most [max_set] distinct entries and at
   most 256 element reads, or the load degrades to Top. *)
let max_table_elems = 256

(* One function as the outer fixpoint sees it. *)
type scanned = {
  sc_fn : Cfg.fn;
  sc_vsa : Vsa.t Lazy.t;  (** forced only inside the demand cone *)
  sc_sites : Jt_disasm.Disasm.insn_info list;  (** its [Call_ind]s *)
  sc_calls : (int * int) list;  (** direct-call edges (insn, callee) *)
}

let analyze ~(m : Jt_obj.Objfile.t) ~(entries : int list)
    ~(code_ptrs : int list) ~(jump_table_targets : int list)
    (fns : (Cfg.fn * Vsa.t Lazy.t) list) =
  let tracked = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tracked e ()) entries;
  let exported = Hashtbl.create 16 in
  List.iter
    (fun (s : Jt_obj.Symbol.t) -> Hashtbl.replace exported s.vaddr ())
    (Jt_obj.Objfile.exported_symbols m);
  (* A function is [closed] when every call to it is a direct call we
     can see: not exported, never address-taken (the raw scan covers
     immediates in code bytes and relocated pc-relative leas), not a
     jump-table target, not the program entry.  Only closed functions
     may have their entry argument registers refined from their call
     sites. *)
  let escapes = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace escapes a ()) code_ptrs;
  List.iter (fun a -> Hashtbl.replace escapes a ()) jump_table_targets;
  (match m.Jt_obj.Objfile.entry with
  | Some e -> Hashtbl.replace escapes e ()
  | None -> ());
  let closed e =
    Hashtbl.mem tracked e
    && (not (Hashtbl.mem exported e))
    && not (Hashtbl.mem escapes e)
  in
  let arg_regs = [ Reg.index Reg.r0; Reg.index Reg.r1; Reg.index Reg.r2 ] in
  (* Per-closed-function join of caller argument values: Bot, the join
     of no call, until the outer fixpoint below joins a call in, then
     grown monotonically.  [degraded] turns every entry state to Top. *)
  let entry_args : (int, value array) Hashtbl.t = Hashtbl.create 16 in
  let no_args = Array.make (List.length arg_regs) Bot in
  let args_of e = Option.value ~default:no_args (Hashtbl.find_opt entry_args e) in
  let degraded = ref false in
  let entry_state fn_entry =
    let regs = Array.make Reg.count Top in
    if closed fn_entry && not !degraded then
      List.iteri (fun k i -> regs.(i) <- (args_of fn_entry).(k)) arg_regs;
    { regs; slots = [] }
  in
  let seed_const ~at k =
    if Hashtbl.mem tracked k then Entries (Iset.singleton k, at) else Top
  in
  let eval_operand st ~at = function
    | Insn.Imm v -> seed_const ~at v
    | Insn.Reg r -> st.regs.(Reg.index r)
  in
  let singleton = function
    | Vsa.Cst { lo; hi } when lo = hi -> Some lo
    | _ -> None
  in
  (* Evaluate a 4-byte load: a pinned entry-sp-relative address reads
     the tracked slot; a constant-base table with a VSA-bounded index
     enumerates the in-image words — every element must be a tracked
     entry or the whole load is Top. *)
  let eval_load vsa st (info : Jt_disasm.Disasm.insn_info) (mem : Insn.mem) =
    let at = info.d_addr in
    match Vsa.mem_addr vsa info mem with
    | Vsa.Sprel { lo; hi } when lo = hi ->
      Option.value ~default:Top (List.assoc_opt lo st.slots)
    | _ -> (
      let base =
        match mem.Insn.base with
        | None -> Some 0
        | Some Insn.Bpc -> Some (at + info.d_len)
        | Some (Insn.Breg r) -> singleton (Vsa.reg_before vsa at r)
      in
      let index =
        match mem.Insn.index with
        | None -> Some (0, 0)
        | Some r -> (
          match Vsa.reg_before vsa at r with
          | Vsa.Cst { lo; hi }
            when hi >= lo && hi - lo < max_table_elems && lo >= 0 ->
            Some (lo, hi)
          | _ -> None)
      in
      match (base, index) with
      | Some b, Some (il, ih) ->
        let disp = Word.to_signed mem.Insn.disp in
        let rec go i acc =
          if i > ih then acc
          else
            match acc with
            | Top -> Top
            | _ -> (
              let addr = (b + disp + (i * mem.Insn.scale)) land Word.mask in
              match read_word m addr with
              | Some w when Hashtbl.mem tracked w ->
                go (i + 1) (join_value acc (Entries (Iset.singleton w, at)))
              | _ -> Top)
        in
        go il Bot
      | _ -> Top)
  in
  let set_reg st r v =
    let regs = Array.copy st.regs in
    regs.(Reg.index r) <- v;
    { st with regs }
  in
  let set_slot st o v =
    let rest = List.remove_assoc o st.slots in
    let slots =
      match v with
      | Top -> rest
      | _ -> List.sort (fun (a, _) (b, _) -> compare a b) ((o, v) :: rest)
    in
    { st with slots }
  in
  let kill_slots st = { st with slots = [] } in
  let top_defs st (i : Insn.t) =
    List.fold_left (fun st r -> set_reg st r Top) st (Insn.defs i)
  in
  let transfer vsa (info : Jt_disasm.Disasm.insn_info) st =
    let at = info.d_addr in
    match info.d_insn with
    | Insn.Mov (rd, op) -> set_reg st rd (eval_operand st ~at op)
    | Insn.Lea (rd, mem) ->
      let v =
        match singleton (Vsa.mem_addr vsa info mem) with
        | Some a -> seed_const ~at a
        | None -> Top
      in
      set_reg st rd v
    | Insn.Load (Insn.W4, rd, mem) -> set_reg st rd (eval_load vsa st info mem)
    | Insn.Load (_, rd, _) -> set_reg st rd Top
    | Insn.Store (w, mem, op) -> (
      match Vsa.mem_addr vsa info mem with
      | Vsa.Sprel { lo; hi } when lo = hi ->
        if w = Insn.W4 then set_slot st lo (eval_operand st ~at op)
        else set_slot st lo Top
      | Vsa.Cst _ ->
        (* non-stack store: by VSA's region separation it cannot hit an
           entry-sp-relative slot *)
        st
      | _ -> kill_slots st)
    | Insn.Push op -> (
      match Vsa.reg_before vsa at Reg.sp with
      | Vsa.Sprel { lo; hi } when lo = hi ->
        set_slot st (lo - 4) (eval_operand st ~at op)
      | _ -> kill_slots st)
    | Insn.Pop rd ->
      let v =
        match Vsa.reg_before vsa at Reg.sp with
        | Vsa.Sprel { lo; hi } when lo = hi ->
          Option.value ~default:Top (List.assoc_opt lo st.slots)
        | _ -> Top
      in
      set_reg st rd v
    | Insn.Call _ | Insn.Call_ind _ ->
      (* The callee may clobber caller-saved registers and write the
         caller's frame through escaped pointers. *)
      let regs = Array.copy st.regs in
      List.iter (fun i -> regs.(i) <- Top) caller_saved_idx;
      { regs; slots = [] }
    | Insn.Syscall _ ->
      let regs = Array.copy st.regs in
      regs.(Reg.index Reg.r0) <- Top;
      { regs; slots = [] }
    | i -> top_defs st i
  in
  (* One pass over the blocks: each function's indirect call sites (in
     address order) and its direct-call edges [(insn, callee)] — the
     [Call t] and the out-of-function [Jmp t] to a tracked entry. *)
  let scanned =
    List.map
      (fun ((fn : Cfg.fn), vsa) ->
        let sites = ref [] and calls = ref [] in
        Array.iter
          (fun (b : Cfg.block) ->
            Array.iter
              (fun (info : Jt_disasm.Disasm.insn_info) ->
                match info.d_insn with
                | Insn.Call_ind _ -> sites := info :: !sites
                | Insn.Call t when Hashtbl.mem tracked t ->
                  calls := (info.d_addr, t) :: !calls
                | Insn.Jmp t
                  when Hashtbl.mem tracked t && Cfg.block_index fn t < 0 ->
                  calls := (info.d_addr, t) :: !calls
                | _ -> ())
              b.Cfg.b_insns)
          fn.Cfg.f_blocks;
        let by_addr (a : Jt_disasm.Disasm.insn_info)
            (b : Jt_disasm.Disasm.insn_info) =
          compare a.d_addr b.d_addr
        in
        { sc_fn = fn; sc_vsa = vsa; sc_sites = List.sort by_addr !sites;
          sc_calls = !calls })
      fns
  in
  (* The demand cone: the functions holding a site, closed under "a
     direct caller of a closed member joins".  A member's fixpoint
     depends only on its entry state, and a closed member's entry state
     only on its callers, so solving the cone alone gives the
     whole-module solution on it. *)
  let callers = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (_, t) -> Hashtbl.add callers t f.sc_fn.Cfg.f_entry)
        f.sc_calls)
    scanned;
  let in_cone = Hashtbl.create 16 in
  let rec admit e =
    if not (Hashtbl.mem in_cone e) then begin
      Hashtbl.replace in_cone e ();
      if closed e then List.iter admit (Hashtbl.find_all callers e)
    end
  in
  List.iter (fun f -> if f.sc_sites <> [] then admit f.sc_fn.Cfg.f_entry) scanned;
  let cone =
    List.filter (fun f -> Hashtbl.mem in_cone f.sc_fn.Cfg.f_entry) scanned
  in
  let solve_cone () =
    List.map
      (fun f ->
        ( f,
          Solver.solve ~entry:(entry_state f.sc_fn.Cfg.f_entry)
            ~transfer:(transfer (Lazy.force f.sc_vsa)) f.sc_fn ))
      cone
  in
  (* Outer fixpoint: solve the cone, propagate direct-call argument
     values into closed cone members, repeat until the argument joins
     stabilize.  Monotone and finite (value chains are bounded), with a
     defensive cap of 10 rounds that degrades to Top instead of stopping
     early. *)
  let solutions = ref [] in
  let stable = ref false in
  let rounds = ref 0 in
  while not !stable do
    incr rounds;
    stable := true;
    solutions := solve_cone ();
    let join_arg callee args =
      if closed callee && Hashtbl.mem in_cone callee then begin
        let prev = args_of callee in
        let next = Array.mapi (fun k v -> join_value v args.(k)) prev in
        if not (Array.for_all2 equal_value prev next) then begin
          Hashtbl.replace entry_args callee next;
          stable := false
        end
      end
    in
    List.iter
      (fun (f, solver) ->
        List.iter
          (fun (at, t) ->
            match Solver.before solver at with
            | Some st ->
              join_arg t
                (Array.of_list (List.map (fun i -> st.regs.(i)) arg_regs))
            | None -> ())
          f.sc_calls)
      !solutions;
    if !rounds >= 10 && not !stable then begin
      (* degrade every refined entry to Top rather than iterate on *)
      degraded := true;
      stable := true;
      solutions := solve_cone ()
    end
  done;
  (* Per-site results from the stabilized solution. *)
  let sites = ref [] in
  List.iter
    (fun (f, solver) ->
      List.iter
        (fun (info : Jt_disasm.Disasm.insn_info) ->
          let v =
            match (Solver.before solver info.d_addr, info.d_insn) with
            | Some st, Insn.Call_ind (Some r, _) -> st.regs.(Reg.index r)
            | Some st, Insn.Call_ind (None, Some m) ->
              eval_load (Lazy.force f.sc_vsa) st info m
            | _ -> Top
          in
          let cs_targets, cs_witness =
            match v with
            | Entries (s, w) -> (Some (Iset.elements s), w)
            | Bot | Top -> (None, 0)
          in
          sites :=
            { cs_fn = f.sc_fn.Cfg.f_entry; cs_site = info.d_addr; cs_targets;
              cs_witness }
            :: !sites)
        f.sc_sites)
    !solutions;
  of_sites
    (List.sort (fun a b -> compare a.cs_site b.cs_site) !sites)
