type t = {
  mutable recorded : Event.t list;  (* newest first *)
  mutable count : int;
  limit : int;
  mutable dropped : int;
}

let create ?(limit = 65_536) () = { recorded = []; count = 0; limit = max 1 limit; dropped = 0 }

let emit t ev =
  if t.count < t.limit then begin
    t.recorded <- ev :: t.recorded;
    t.count <- t.count + 1
  end
  else t.dropped <- t.dropped + 1

let events t = List.rev t.recorded
let length t = t.count
let dropped t = t.dropped
