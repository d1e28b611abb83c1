(* Dominator tree over one function's blocks, as immediate dominators.

   [compute] runs Cooper, Harvey and Kennedy's iterative algorithm ("A
   Simple, Fast Dominance Algorithm", 2001) over the reverse postorder of
   the blocks reachable from the entry, then lays the tree out in
   preorder (children by ascending index, which is ascending address) so
   that a block's subtree is the contiguous range [pre b .. last b]:
   [dominates] is two comparisons.  Everything is indexed by the
   function's dense block numbers; addresses appear only at the query
   boundary, found by binary search in [addrs].

   A block the entry cannot reach has no idom and is dominated only by
   itself.  Such blocks follow the tree in the preorder, each a subtree
   of its own. *)

type t = {
  addrs : int array;  (* block -> address, ascending *)
  root : int;  (* the entry block *)
  idom : int array;  (* block -> idom block, -1 for none *)
  pre : int array;  (* block -> preorder number *)
  last : int array;  (* block -> last preorder number in its subtree *)
  order : int array;  (* preorder number -> block *)
}

let compute ~entry ~addrs ~succs ~preds =
  let n = Array.length addrs in
  (* Iterative DFS from the entry, successors in order: [po.(b)] is
     [b]'s postorder number ([-1] unvisited, [-2] on the stack) and
     [by_po] its inverse. *)
  let po = Array.make n (-1) and by_po = Array.make n 0 in
  let stack = Array.make n 0 and next = Array.make n 0 in
  let sp = ref 1 and k = ref 0 in
  stack.(0) <- entry;
  po.(entry) <- -2;
  while !sp > 0 do
    let b = stack.(!sp - 1) in
    let ss = succs.(b) in
    let j = next.(b) in
    if j < Array.length ss then begin
      next.(b) <- j + 1;
      let s = ss.(j) in
      if po.(s) = -1 then begin
        po.(s) <- -2;
        stack.(!sp) <- s;
        incr sp
      end
    end
    else begin
      po.(b) <- !k;
      by_po.(!k) <- b;
      incr k;
      decr sp
    end
  done;
  (* Cooper-Harvey-Kennedy over postorder numbers: the entry is
     [reached - 1], and an idom always has a larger number than the
     blocks it dominates.  [ipo] holds idoms as postorder numbers. *)
  let reached = !k in
  let ipo = Array.make reached (-1) and root = reached - 1 in
  ipo.(root) <- root;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      if !a < !b then a := ipo.(!a) else b := ipo.(!b)
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = root - 1 downto 0 do
      let ps = preds.(by_po.(i)) in
      let nd = ref (-1) in
      for j = 0 to Array.length ps - 1 do
        let p = po.(ps.(j)) in
        if p >= 0 && ipo.(p) >= 0 then
          nd := if !nd < 0 then p else intersect p !nd
      done;
      if !nd <> ipo.(i) then begin
        ipo.(i) <- !nd;
        changed := true
      end
    done
  done;
  let idom = Array.make n (-1) in
  for i = 0 to root - 1 do
    idom.(by_po.(i)) <- by_po.(ipo.(i))
  done;
  (* Children as ascending linked lists ([kid] first child, [sib] next
     sibling), then the preorder walk that consumes them; both, and the
     preorder, reuse the DFS's arrays. *)
  let kid = po and sib = next in
  Array.fill kid 0 n (-1);
  for b = n - 1 downto 0 do
    let p = idom.(b) in
    if p >= 0 then begin
      sib.(b) <- kid.(p);
      kid.(p) <- b
    end
  done;
  let pre = Array.make n (-1) and last = Array.make n 0 in
  let order = by_po and cnt = ref 0 in
  let number b =
    pre.(b) <- !cnt;
    order.(!cnt) <- b;
    incr cnt
  in
  number entry;
  stack.(0) <- entry;
  sp := 1;
  while !sp > 0 do
    let b = stack.(!sp - 1) in
    let c = kid.(b) in
    if c >= 0 then begin
      kid.(b) <- sib.(c);
      number c;
      stack.(!sp) <- c;
      incr sp
    end
    else begin
      last.(b) <- !cnt - 1;
      decr sp
    end
  done;
  for b = 0 to n - 1 do
    if pre.(b) < 0 then begin
      number b;
      last.(b) <- pre.(b)
    end
  done;
  { addrs; root = entry; idom; pre; last; order }

(* The block at address [a], or -1. *)
let index t a =
  let lo = ref 0 and hi = ref (Array.length t.addrs - 1) and r = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = t.addrs.(mid) in
    if x = a then begin
      r := mid;
      lo := !hi + 1
    end
    else if x < a then lo := mid + 1
    else hi := mid - 1
  done;
  !r

let entry t = t.addrs.(t.root)

let idom t a =
  let i = index t a in
  if i >= 0 && t.idom.(i) >= 0 then Some t.addrs.(t.idom.(i)) else None

(* The children of [i] are the roots of the consecutive subtrees that
   fill [pre i + 1 .. last i], already in ascending address order. *)
let children t a =
  let i = index t a in
  if i < 0 then []
  else
    let rec go j acc =
      if j > t.last.(i) then List.rev acc
      else
        let c = t.order.(j) in
        go (t.last.(c) + 1) (t.addrs.(c) :: acc)
    in
    go (t.pre.(i) + 1) []

let dominates_index t i j = t.pre.(i) <= t.pre.(j) && t.pre.(j) <= t.last.(i)

let dominates t a b =
  let i = index t a and j = index t b in
  i >= 0 && j >= 0 && dominates_index t i j

let strictly_dominates t a b = a <> b && dominates t a b
