open Jt_isa

(* Syntactic address key: two accesses with equal keys whose registers
   carry the same values compute the same address range.  Shared by the
   JASan per-function availability pass and the DBT's trace-spine
   elision, which must agree exactly on what "same address" means. *)
module Key = struct
  type t = int * int * int * int * int
  (* base reg (-1 none), index reg (-1 none), scale, disp, width *)

  let compare = compare
end

module Map = Stdlib.Map.Make (Key)

let key_of (m : Insn.mem) width =
  match m.Insn.base with
  | Some Insn.Bpc -> None
  | base ->
    let b = match base with Some (Insn.Breg r) -> Reg.index r | _ -> -1 in
    let x = match m.Insn.index with Some r -> Reg.index r | None -> -1 in
    Some (b, x, m.Insn.scale, Word.to_signed m.Insn.disp, width)

let key_regs ((b, x, _, _, _) : Key.t) =
  (if b >= 0 then [ Reg.of_index b ] else [])
  @ if x >= 0 then [ Reg.of_index x ] else []

type site = Site of int | Several
type t = site Map.t

(* An access whose key has no single site keeps its own check, so it may
   become the site; one whose key has a site is elided and must not. *)
let gen k addr st =
  match Map.find_opt k st with
  | Some (Site _) -> st
  | None | Some Several -> Map.add k (Site addr) st

let witness k st =
  match Map.find_opt k st with Some (Site w) -> Some w | _ -> None

(* Available-checks must-lattice: the address keys whose byte ranges
   were shadow-checked on *every* path to a point, each with its check.
   Join keeps the keys of both sides; paths that checked a key at
   different accesses leave it available but with no one witness.  The
   solver's optimistic initialization plays the implicit "everything"
   top, so the analysis converges downwards to the must-state. *)
module Lattice = struct
  type nonrec t = t

  let equal = Map.equal ( = )

  let join a b =
    if a == b then a
    else
      Map.merge
        (fun _ x y ->
          match (x, y) with
          | Some (Site v), Some (Site w) when v = w -> x
          | Some _, Some _ -> Some Several
          | _ -> None)
        a b

  let widen = join
end

(* The instruction-shape part of the availability transfer function:
   calls and syscalls are shadow-state barriers (the allocator may
   poison redzones or freed blocks behind them), and any definition of
   a key's address registers invalidates the key.  Clients layer their
   own gen sites and extra barriers (canary stores) around this. *)
let insn_transfer (i : Insn.t) st =
  match i with
  | Insn.Call _ | Insn.Call_ind _ | Insn.Syscall _ -> Map.empty
  | i ->
    let defs = Insn.defs i in
    if defs = [] then st
    else
      Map.filter
        (fun k _ ->
          not
            (List.exists (fun r -> List.exists (Reg.equal r) defs) (key_regs k)))
        st
