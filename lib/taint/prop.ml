let default = Mask.union

type direction = Left | Right

(* Taint moves with the data by whole bytes; a fractional-byte shift
   additionally smears each tainted byte onto its neighbour in the
   shift direction, since its bits straddle two result bytes. *)
let shift dir ~amount ~amount_mask m =
  if Mask.is_tainted amount_mask then
    if Mask.is_tainted m then Mask.word else Mask.none
  else
    let amount = amount land 31 in
    let whole = amount / 8 and frac = amount mod 8 in
    let moved =
      match dir with
      | Left -> m lsl whole
      | Right -> m lsr whole
    in
    let smeared =
      if frac = 0 then moved
      else
        match dir with
        | Left -> moved lor (moved lsl 1)
        | Right -> moved lor (moved lsr 1)
    in
    Mask.restrict smeared ~bytes:4

let byte_of v i = (v lsr (8 * i)) land 0xff

let and_bytes ~v1 ~m1 ~v2 ~m2 =
  let result = ref Mask.none in
  for i = 0 to 3 do
    let zero1 = byte_of v1 i = 0 && not (Mask.byte m1 i) in
    let zero2 = byte_of v2 i = 0 && not (Mask.byte m2 i) in
    if (not zero1) && not zero2 && (Mask.byte m1 i || Mask.byte m2 i) then
      result := Mask.set_byte !result i
  done;
  !result

let xor_same = Mask.none
