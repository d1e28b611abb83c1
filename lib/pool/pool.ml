(* One call, one batch: [min jobs n] domains each take the next input
   index from a shared atomic counter until none is left, storing the
   job's outcome — normal or exceptional, with the backtrace captured on
   the worker — in that index's slot.  Joining every domain publishes
   the slots to the caller, which then returns them in input order or
   re-raises the leftmost failure. *)

let run ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      slots.(i) <-
        Some
          (match f inputs.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  List.iter Domain.join (List.init (min jobs n) (fun _ -> Domain.spawn work));
  (* [Array.map] visits the slots left to right, so the leftmost failure
     is the one re-raised. *)
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       slots)
