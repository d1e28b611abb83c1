open Jt_isa
open Jt_cfg

let reg_mask rs = List.fold_left (fun m r -> m lor (1 lsl Reg.index r)) 0 rs

(* A liveness fact is one word: the register mask in the low
   [Reg.count] bits, the flag bits above them. *)
let flag_shift = Reg.count
let flag_bits (f : Flags.set) = (f :> int) lsl flag_shift
let all_regs = reg_mask Reg.all
let everything = all_regs lor flag_bits Flags.all

(* Live-out at function exits: return value, stack registers, and
   callee-saved registers the caller expects preserved. *)
let exit_live = reg_mask (Reg.r0 :: Reg.sp :: Reg.callee_saved)

let arg_regs = reg_mask [ Reg.r0; Reg.r1; Reg.r2 ]
let caller_saved_mask = reg_mask Reg.caller_saved
let sp_bit = reg_mask [ Reg.sp ]

type t = {
  fn : Cfg.fn option;  (* [None] only for the all-live fallback *)
  live : int array;  (* live-before, in the function's instruction order *)
  all_live : bool;
}

(* Per-instruction transfer as [live' = (live land lnot kill) lor gen],
   written into [kill.(p)] and [gen.(p)].  Calls are summarized by
   convention, or by an inter-procedural clobber/read summary when one
   is supplied (the section 4.1.2 extension for convention-breaking
   modules); either way no flag is live across a call. *)
let set_transfer ~call_summary kill gen p (i : Insn.t) =
  match i with
  | Insn.Call t when Option.is_some (call_summary t) ->
    let clobbers, reads = Option.get (call_summary t) in
    kill.(p) <- clobbers lor flag_bits Flags.all;
    gen.(p) <- reads lor sp_bit
  | Insn.Call _ | Insn.Call_ind _ ->
    kill.(p) <- caller_saved_mask lor flag_bits Flags.all;
    gen.(p) <- arg_regs lor Insn.use_mask i
  | _ ->
    kill.(p) <- Insn.def_mask i lor flag_bits (Insn.flags_def i);
    gen.(p) <- Insn.use_mask i lor flag_bits (Insn.flags_use i)

(* Backward over the function's block indices: per-block summaries
   ([live_in = (out land lnot bkill) lor bgen]), a round-robin fixpoint
   in reverse address order, then one replay per block to record the
   live-before word of every instruction. *)
let analyze ?(call_summary = fun _ -> None) ?(exit_all_live = false)
    (fn : Cfg.fn) =
  let blocks = fn.Cfg.f_blocks and first = fn.Cfg.f_first in
  let n = Array.length blocks in
  let kill = Array.make first.(n) 0 and gen = Array.make first.(n) 0 in
  let bkill = Array.make n 0 and bgen = Array.make n 0 in
  for b = 0 to n - 1 do
    let insns = blocks.(b).Cfg.b_insns in
    let k = ref 0 and g = ref 0 in
    for j = Array.length insns - 1 downto 0 do
      let p = first.(b) + j in
      set_transfer ~call_summary kill gen p insns.(j).Jt_disasm.Disasm.d_insn;
      g := (!g land lnot kill.(p)) lor gen.(p);
      k := !k lor kill.(p)
    done;
    bkill.(b) <- !k;
    bgen.(b) <- !g
  done;
  let at_exit =
    (* When the module breaks the convention, a caller may consume any
       register — or even flags — the callee leaves behind. *)
    if exit_all_live then everything else exit_live
  in
  (* [fixed.(b)]: the block's live-out when it does not depend on its
     successors' live-in, [-1] when it is their join. *)
  let fixed =
    Array.mapi
      (fun b (blk : Cfg.block) ->
        match blk.Cfg.b_term with
        | Cfg.Tret -> at_exit
        | Cfg.Thalt -> 0
        | Cfg.Tjmp_ind [] ->
          (* Unknown indirect-branch targets: assume everything live
             (section 3.3.2). *)
          everything
        | Cfg.Tjmp t when Cfg.block_index fn t < 0 ->
          (* Tail call to another function. *)
          at_exit
        | Cfg.Tjmp _ | Cfg.Tjcc _ | Cfg.Tjmp_ind _ | Cfg.Tcall _
        | Cfg.Tcall_ind _ | Cfg.Tfall _ ->
          (* a successor outside the function: everything live there *)
          if List.length blk.Cfg.b_succs <> Array.length fn.Cfg.f_succs.(b)
          then everything
          else -1)
      blocks
  in
  let live_in = Array.make n 0 in
  let out b =
    if fixed.(b) >= 0 then fixed.(b)
    else begin
      let ss = fn.Cfg.f_succs.(b) and acc = ref 0 in
      for j = 0 to Array.length ss - 1 do
        acc := !acc lor live_in.(ss.(j))
      done;
      !acc
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let v = (out b land lnot bkill.(b)) lor bgen.(b) in
      if v <> live_in.(b) then begin
        live_in.(b) <- v;
        changed := true
      end
    done
  done;
  (* The replay overwrites [kill] with the facts once each slot is read. *)
  let live = kill in
  for b = 0 to n - 1 do
    let acc = ref (out b) in
    for p = first.(b + 1) - 1 downto first.(b) do
      acc := (!acc land lnot kill.(p)) lor gen.(p);
      live.(p) <- !acc
    done
  done;
  { fn = Some fn; live; all_live = false }

let word t addr =
  match t.fn with
  | Some fn when not t.all_live ->
    let p = Cfg.insn_index fn addr in
    if p < 0 then everything else t.live.(p)
  | _ -> everything

let live_before t addr =
  let w = word t addr in
  (w land all_regs, Flags.of_mask (w lsr flag_shift))

let dead_regs_before t addr =
  let live = word t addr in
  List.filter
    (fun r ->
      (not (Reg.equal r Reg.sp))
      && (not (Reg.equal r Reg.fp))
      && live land (1 lsl Reg.index r) = 0)
    Reg.all

let flags_dead_before t addr = word t addr land flag_bits Flags.all = 0

let conservative (_ : Cfg.fn) = { fn = None; live = [||]; all_live = true }

(* Serialization: the facts are the analysis — there is nothing to
   replay — so export/import is a plain dump of (addr, regs, flags)
   triples, one per instruction address, flag sets as their bit masks. *)

let export t =
  match t.fn with
  | None -> (t.all_live, [])
  | Some fn ->
    let facts = ref [] in
    Array.iteri
      (fun b (blk : Cfg.block) ->
        Array.iteri
          (fun j (i : Jt_disasm.Disasm.insn_info) ->
            (* an instruction several blocks hold is answered from one *)
            if Cfg.insn_block fn i.d_addr = b then
              let w = t.live.(fn.Cfg.f_first.(b) + j) in
              facts := (i.d_addr, w land all_regs, w lsr flag_shift) :: !facts)
          blk.Cfg.b_insns)
      fn.Cfg.f_blocks;
    (t.all_live, List.sort (fun (a, _, _) (b, _, _) -> compare a b) !facts)

(* The stored facts name instructions of [fn], registers only in the
   register bits: anything else is a corrupt entry. *)
let import ~all_live ~facts fn =
  let fail fmt = Printf.ksprintf failwith ("Liveness.import: " ^^ fmt) in
  if all_live then
    if facts = [] then conservative fn
    else fail "all-live facts for function 0x%x" fn.Cfg.f_entry
  else begin
    let live =
      Array.make fn.Cfg.f_first.(Array.length fn.Cfg.f_blocks) everything
    in
    List.iter
      (fun (addr, regs, bits) ->
        let p = Cfg.insn_index fn addr in
        if p < 0 || regs land lnot all_regs <> 0 then
          fail "bad fact 0x%x in function 0x%x" addr fn.Cfg.f_entry;
        live.(p) <- regs lor flag_bits (Flags.of_mask bits))
      facts;
    { fn = Some fn; live; all_live }
  end
