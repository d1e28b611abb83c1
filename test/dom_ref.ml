(* The reference dominator tree and natural loops: Cooper, Harvey and
   Kennedy's algorithm and the back-edge walk keyed by block address,
   over hash tables rebuilt from the function's blocks and their
   [b_succs]/[b_preds] lists.  {!Jt_cfg.Domtree} and [Cfg.f_loops] run
   the same algorithms over the function's block indices; test_cfg
   holds every idom and loop to this model. *)

open Jt_cfg

module Iset = Cfg.Iset

(* Block address -> immediate dominator address, for every block the
   entry reaches but the entry itself. *)
let idoms (fn : Cfg.fn) =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun (b : Cfg.block) -> Hashtbl.replace tbl b.b_addr b) fn.f_blocks;
  let succs a = List.filter (Hashtbl.mem tbl) (Hashtbl.find tbl a).Cfg.b_succs in
  (* Postorder numbers of the blocks reachable from the entry ([-1] while
     a block is on the DFS stack); [order] ends up in reverse postorder. *)
  let po = Hashtbl.create 64 and order = ref [] and n = ref 0 in
  let rec dfs b =
    if not (Hashtbl.mem po b) then begin
      Hashtbl.replace po b (-1);
      List.iter dfs (succs b);
      Hashtbl.replace po b !n;
      incr n;
      order := b :: !order
    end
  in
  dfs fn.f_entry;
  let n = !n and num = Hashtbl.find po in
  let preds = Array.make n [] in
  List.iter
    (fun b ->
      List.iter (fun s -> preds.(num s) <- num b :: preds.(num s)) (succs b))
    !order;
  let idom = Array.make n (-1) and root = n - 1 in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if a < b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let rpo = List.map num (List.tl !order) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let nd =
          List.fold_left
            (fun acc p ->
              if idom.(p) < 0 then acc
              else if acc < 0 then p
              else intersect p acc)
            (-1) preds.(b)
        in
        if nd <> idom.(b) then begin
          idom.(b) <- nd;
          changed := true
        end)
      rpo
  done;
  let block = Array.of_list (List.rev !order) in
  let result = Hashtbl.create n in
  Hashtbl.iter
    (fun b i -> if i <> root then Hashtbl.replace result b block.(idom.(i)))
    po;
  result

(* [a] dominates [b]: [a] is on [b]'s idom chain (or is [b]). *)
let dominates idoms a b =
  let rec up x =
    x = a || match Hashtbl.find_opt idoms x with Some p -> up p | None -> false
  in
  up b

(* Natural loops as (header, body addresses), sorted by header. *)
let loops (fn : Cfg.fn) =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun (b : Cfg.block) -> Hashtbl.replace tbl b.b_addr b) fn.f_blocks;
  let idoms = idoms fn in
  let found = Hashtbl.create 8 in
  Hashtbl.iter
    (fun a (b : Cfg.block) ->
      List.iter
        (fun s ->
          if Hashtbl.mem tbl s && dominates idoms s a then begin
            (* a -> s is a back edge; collect the natural loop of s. *)
            let body = ref (Iset.of_list [ s; a ]) in
            let stack = ref [ a ] in
            while !stack <> [] do
              let x = List.hd !stack in
              stack := List.tl !stack;
              if x <> s then
                List.iter
                  (fun p ->
                    if Hashtbl.mem tbl p && not (Iset.mem p !body) then begin
                      body := Iset.add p !body;
                      stack := p :: !stack
                    end)
                  (Hashtbl.find tbl x).Cfg.b_preds
            done;
            Hashtbl.replace found s
              (match Hashtbl.find_opt found s with
              | Some prev -> Iset.union prev !body
              | None -> !body)
          end)
        b.b_succs)
    tbl;
  Hashtbl.fold (fun h body acc -> (h, Iset.elements body) :: acc) found []
  |> List.sort compare
