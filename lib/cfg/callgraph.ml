open Jt_isa

type edge_kind = Direct | Tail | Indirect

type edge = { e_caller : int; e_site : int; e_callee : int; e_kind : edge_kind }

type t = {
  cg_edges : edge list;
  cg_succs : (int, (int * edge_kind) list) Hashtbl.t;  (* caller -> callees *)
  cg_unresolved : int list;  (* indirect call sites with no target set *)
}

let kind_name = function
  | Direct -> "direct"
  | Tail -> "tail"
  | Indirect -> "indirect"

let build ?(resolve = fun _ -> None) (cfg : Cfg.t) =
  let is_entry t = Option.is_some (Cfg.fn_at cfg t) in
  let edges = ref [] in
  let unresolved = ref [] in
  Array.iter
    (fun (fn : Cfg.fn) ->
      let caller = fn.Cfg.f_entry in
      Array.iter
        (fun (b : Cfg.block) ->
          Array.iter
            (fun (info : Jt_disasm.Disasm.insn_info) ->
              let site = info.d_addr in
              match info.d_insn with
              | Insn.Call t when is_entry t ->
                edges :=
                  { e_caller = caller; e_site = site; e_callee = t;
                    e_kind = Direct }
                  :: !edges
              | Insn.Jmp t
                when Cfg.block_index fn t < 0 && is_entry t ->
                (* jump out of the function to a known entry: tail call *)
                edges :=
                  { e_caller = caller; e_site = site; e_callee = t;
                    e_kind = Tail }
                  :: !edges
              | Insn.Call_ind _ -> (
                match resolve site with
                | Some targets ->
                  List.iter
                    (fun t ->
                      edges :=
                        { e_caller = caller; e_site = site; e_callee = t;
                          e_kind = Indirect }
                        :: !edges)
                    targets
                | None -> unresolved := site :: !unresolved)
              | _ -> ())
            b.Cfg.b_insns)
        fn.Cfg.f_blocks)
    cfg.Cfg.c_fns;
  let edges = List.rev !edges in
  let succs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt succs e.e_caller) in
      if not (List.mem (e.e_callee, e.e_kind) prev) then
        Hashtbl.replace succs e.e_caller ((e.e_callee, e.e_kind) :: prev))
    edges;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) succs;
  { cg_edges = edges; cg_succs = succs; cg_unresolved = List.rev !unresolved }

let edges t = t.cg_edges

let succs t entry = Option.value ~default:[] (Hashtbl.find_opt t.cg_succs entry)

let unresolved_sites t = t.cg_unresolved
