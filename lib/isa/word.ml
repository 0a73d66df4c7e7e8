let mask32 = 0xFFFFFFFF
let of_int v = v land mask32
let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v
let of_signed v = v land mask32
let add a b = (a + b) land mask32
let sub a b = (a - b) land mask32
let mul_lo a b = Int64.to_int (Int64.logand (Int64.mul (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL)

let mul_hi_signed a b =
  let p = Int64.mul (Int64.of_int (to_signed a)) (Int64.of_int (to_signed b)) in
  Int64.to_int (Int64.logand (Int64.shift_right p 32) 0xFFFFFFFFL)

let mul_hi_unsigned a b =
  let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
  Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0xFFFFFFFFL)

let div_signed a b =
  if b = 0 then (0, a)
  else
    let sa = to_signed a and sb = to_signed b in
    (of_signed (sa / sb), of_signed (sa mod sb))

let div_unsigned a b = if b = 0 then (0, a) else (a / b, a mod b)
let sll v n = (v lsl (n land 31)) land mask32
let srl v n = v lsr (n land 31)
let sra v n = of_signed (to_signed v asr (n land 31))

let sign_extend ~bits v =
  let v = v land ((1 lsl bits) - 1) in
  if v land (1 lsl (bits - 1)) <> 0 then (v - (1 lsl bits)) land mask32 else v

let byte v i = (v lsr (8 * i)) land 0xff
let set_byte v i b = v land lnot (0xff lsl (8 * i)) lor ((b land 0xff) lsl (8 * i))
let lt_signed a b = to_signed a < to_signed b
let lt_unsigned a b = a < b
