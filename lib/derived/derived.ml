module Make (K : sig
  type t

  val hash : t -> int
end) =
struct
  module Tbl = Ephemeron.K1.Make (struct
    type t = K.t

    let equal = ( == )
    let hash = K.hash
  end)

  type 'a t = 'a Tbl.t Domain.DLS.key

  let create () = Domain.DLS.new_key (fun () -> Tbl.create 16)
  let find t k = Tbl.find_opt (Domain.DLS.get t) k
  let add t k v = Tbl.replace (Domain.DLS.get t) k v

  let find_or_add t k f =
    match find t k with
    | Some v -> v
    | None ->
      let v = f k in
      add t k v;
      v
end
