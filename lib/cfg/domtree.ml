(* Dominator tree over one function's blocks, as immediate dominators.

   [compute] runs Cooper, Harvey and Kennedy's iterative algorithm ("A
   Simple, Fast Dominance Algorithm", 2001) over the reverse postorder of
   the blocks reachable from the entry, then [make] lays the tree out in
   preorder (children by ascending address) so that a block's subtree is
   the contiguous range [index b .. last b]: [dominates] is two
   comparisons.

   A block the entry cannot reach has no idom and is dominated only by
   itself.  Such blocks follow the tree in the preorder, each a subtree
   of its own. *)

type t = {
  entry : int;
  index : (int, int) Hashtbl.t;  (* block -> preorder number *)
  addr : int array;  (* preorder number -> block *)
  parent : int array;  (* preorder number of the idom, -1 for none *)
  last : int array;  (* last preorder number in the block's subtree *)
}

(* [idom_of b] is [b]'s immediate dominator, [None] for the entry and
   for blocks without one. *)
let make ~entry blocks idom_of =
  let blocks = List.sort_uniq compare blocks in
  let n = List.length blocks in
  let kids = Hashtbl.create n in
  List.iter
    (fun b ->
      match idom_of b with Some p -> Hashtbl.add kids p b | None -> ())
    (List.rev blocks);
  let index = Hashtbl.create n in
  let addr = Array.make n 0 and parent = Array.make n (-1) in
  let last = Array.make n 0 and next = ref 0 in
  let number p b =
    let i = !next in
    incr next;
    Hashtbl.replace index b i;
    addr.(i) <- b;
    parent.(i) <- p;
    last.(i) <- i;
    i
  in
  let rec enter p b =
    let i = number p b in
    List.iter (enter i) (Hashtbl.find_all kids b);
    last.(i) <- !next - 1
  in
  if List.mem entry blocks then enter (-1) entry;
  List.iter
    (fun b -> if not (Hashtbl.mem index b) then ignore (number (-1) b))
    blocks;
  { entry; index; addr; parent; last }

let compute ~entry ~succs blocks =
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
  dfs entry;
  let n = !n and num = Hashtbl.find po in
  let preds = Array.make n [] in
  List.iter
    (fun b ->
      List.iter (fun s -> preds.(num s) <- num b :: preds.(num s)) (succs b))
    !order;
  (* Cooper-Harvey-Kennedy over postorder numbers: the entry is [n - 1],
     and an idom always has a larger number than the blocks it
     dominates. *)
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
  make ~entry blocks (fun b ->
      match Hashtbl.find_opt po b with
      | Some i when i <> root -> Some block.(idom.(i))
      | _ -> None)

let entry t = t.entry

let idom t b =
  match Hashtbl.find_opt t.index b with
  | Some i when t.parent.(i) >= 0 -> Some t.addr.(t.parent.(i))
  | _ -> None

(* The children of [i] are the roots of the consecutive subtrees that
   fill [i + 1 .. last i], already in ascending address order. *)
let children t b =
  match Hashtbl.find_opt t.index b with
  | None -> []
  | Some i ->
    let rec go j acc =
      if j > t.last.(i) then List.rev acc
      else go (t.last.(j) + 1) (t.addr.(j) :: acc)
    in
    go (i + 1) []

let dominates t a b =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some i, Some j -> i <= j && j <= t.last.(i)
  | _ -> false

let strictly_dominates t a b = a <> b && dominates t a b
