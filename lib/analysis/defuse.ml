open Jt_isa
open Jt_disasm.Disasm

module Imap = Map.Make (Int)

(* Reaching definitions: def = instruction address; -1 = entry/unknown.
   A state maps a register index to the sorted, duplicate-free list of
   the definitions that may reach it; a register with no binding has
   none. *)
let entry_def = -1

let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x < y then x :: merge a' b
    else if y < x then y :: merge a b'
    else x :: merge a' b'

module Lattice = struct
  type t = int list Imap.t

  let equal = Imap.equal (List.equal Int.equal)
  let join = Imap.union (fun _ x y -> Some (if x == y then x else merge x y))
  let widen = join
end

module Solver = Dataflow.Make (Lattice)

type t = Solver.t

let transfer i env =
  (* Calls define the return-value register by convention: allocation-site
     tracing hangs off this. *)
  let defs =
    match i.d_insn with
    | Insn.Call _ | Insn.Call_ind _ -> Reg.r0 :: Insn.defs i.d_insn
    | _ -> Insn.defs i.d_insn
  in
  List.fold_left (fun env r -> Imap.add (Reg.index r) [ i.d_addr ] env) env defs

let analyze fn =
  let entry =
    List.fold_left
      (fun m r -> Imap.add (Reg.index r) [ entry_def ] m)
      Imap.empty Reg.all
  in
  Solver.solve ~entry ~transfer fn

(* A block the solver never reached replays from the empty state: only
   its own definitions reach, and every other register reads as
   unknown. *)
let reaching_defs t addr r =
  match Solver.before ~unreached:Imap.empty t addr with
  | None -> [ entry_def ]
  | Some env -> (
    match Imap.find_opt (Reg.index r) env with
    | Some ds -> ds
    | None -> [ entry_def ])

let traces_to t addr r ~pred =
  let visited = Hashtbl.create 16 in
  let rec go addr r =
    List.exists
      (fun d ->
        if d = entry_def || Hashtbl.mem visited (d, Reg.index r) then false
        else begin
          Hashtbl.replace visited (d, Reg.index r) ();
          match Solver.insn t d with
          | None -> false
          | Some { d_insn = i; _ } ->
            pred i
            ||
            (* Follow register-to-register copies and arithmetic. *)
            (match i with
            | Insn.Mov (_, Insn.Reg src) -> go d src
            | Insn.Binop (_, rd, src) ->
              go d rd
              || (match src with Insn.Reg rs -> go d rs | Insn.Imm _ -> false)
            | Insn.Neg rd | Insn.Not rd -> go d rd
            | Insn.Lea (_, m) ->
              let regs =
                (match m.Insn.base with
                | Some (Insn.Breg b) -> [ b ]
                | Some Insn.Bpc | None -> [])
                @ match m.Insn.index with Some x -> [ x ] | None -> []
              in
              List.exists (go d) regs
            | _ -> false)
        end)
      (reaching_defs t addr r)
  in
  go addr r
