type 'a t = {
  tags : int array;
  items : 'a array;
  mutable next : int;
  mutable filled : int;
}

let create ~dummy size =
  let size = max 1 size in
  { tags = Array.make size 0; items = Array.make size dummy; next = 0; filled = 0 }

let length t = t.filled

let push t tag item =
  t.tags.(t.next) <- tag;
  t.items.(t.next) <- item;
  t.next <- (t.next + 1) mod Array.length t.tags;
  if t.filled < Array.length t.tags then t.filled <- t.filled + 1

(* Oldest entry first; the most recent push is last. *)
let to_list t =
  let cap = Array.length t.tags in
  let start = (t.next - t.filled + cap) mod cap in
  List.init t.filled (fun i ->
      let j = (start + i) mod cap in
      (t.tags.(j), t.items.(j)))
