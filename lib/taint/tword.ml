(* A tainted word is a single immediate [int]: value in bits 0-31,
   per-byte taint mask in bits 32-35.  Nothing here allocates. *)

type t = int

let mask32 = 0xFFFFFFFF
let tag_bits = 0xF lsl 32

let make ~v ~m = (Mask.restrict m ~bytes:4 lsl 32) lor (v land mask32)
let untainted v = v land mask32
let tainted v = tag_bits lor (v land mask32)
let zero = 0
let value w = w land mask32
let mask w = w lsr 32
let is_tainted w = w lsr 32 <> 0
let with_value w v = (w land tag_bits) lor (v land mask32)
let equal = Int.equal

let to_bits w = w
let of_bits b = b land (tag_bits lor mask32)

let pp ppf w =
  if is_tainted w then
    Format.fprintf ppf "0x%08x[t:%a]" (value w) (Mask.pp ?bytes:None) (mask w)
  else Format.fprintf ppf "0x%08x" (value w)
