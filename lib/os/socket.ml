type t = {
  mutable pending : string list list;
  mutable current : string list;
  mutable pos : int;  (* bytes of the head of [current] already received *)
  mutable sent_rev : string list;
}

let create ~sessions = { pending = sessions; current = []; pos = 0; sent_rev = [] }

let accept t =
  match t.pending with
  | [] -> false
  | session :: rest ->
    t.pending <- rest;
    t.current <- session;
    t.pos <- 0;
    true

let recv t ~max mem addr ~taint =
  match t.current with
  | [] -> 0
  | msg :: rest ->
    let pos = t.pos in
    let left = String.length msg - pos in
    let n =
      if left <= max then begin
        t.current <- rest;
        t.pos <- 0;
        left
      end
      else begin
        t.pos <- pos + max;
        max
      end
    in
    for i = 0 to n - 1 do
      Ptaint_mem.Memory.store_byte mem (addr + i) (Char.code (String.unsafe_get msg (pos + i)))
        ~taint
    done;
    n

let send t s = t.sent_rev <- s :: t.sent_rev
let sent t = List.rev t.sent_rev
