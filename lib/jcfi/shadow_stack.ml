type t = { mutable data : int array; mutable top : int }

let create () = { data = Array.make 64 0; top = 0 }

let push t v =
  if t.top >= Array.length t.data then begin
    let bigger = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 bigger 0 t.top;
    t.data <- bigger
  end;
  t.data.(t.top) <- v;
  t.top <- t.top + 1

let check_pop t v =
  if t.top = 0 then true
  else begin
    t.top <- t.top - 1;
    t.data.(t.top) = v
  end
