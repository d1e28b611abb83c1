(* One table holds every kind, so its values share one type: each kind
   adds its own constructor to [value] and projects it back out. *)
type value = ..

type 'a kind = {
  k_name : string;
  k_inj : 'a -> value;
  k_prj : value -> 'a option;
}

let names = Hashtbl.create 8
let names_mu = Mutex.create ()

let kind (type a) k_name : a kind =
  Mutex.lock names_mu;
  let taken = Hashtbl.mem names k_name in
  if not taken then Hashtbl.replace names k_name ();
  Mutex.unlock names_mu;
  if taken then invalid_arg ("Rewrite_cache.kind: duplicate kind " ^ k_name);
  let module M = struct
    type value += V of a
  end in
  {
    k_name;
    k_inj = (fun x -> M.V x);
    k_prj = (function M.V x -> Some x | _ -> None);
  }

(* A few shared objects (libc, libm, libcxx, libgfortran, ld.so, a
   dlopen'd plugin) times a few kinds and tool tags. *)
let capacity = 64

let table : value Memo.t = Memo.create ~capacity

let find_or_compute k ~tool (m : Jt_obj.Objfile.t) compute =
  match m.kind with
  | Exec_nonpic | Exec_pic -> compute ()
  | Shared -> (
    let key = String.concat "\x00" [ Jt_obj.Objfile.digest m; k.k_name; tool ] in
    match k.k_prj (Memo.find_or_fill table key (fun () -> k.k_inj (compute ()))) with
    | Some v -> v
    | None -> assert false (* kind names are unique, so keys never cross kinds *))
