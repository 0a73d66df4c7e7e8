type t = int

let none = 0
let all ~bytes = (1 lsl bytes) - 1
let word = all ~bytes:4
let is_tainted m = m <> 0
let byte m i = m land (1 lsl i) <> 0
let set_byte m i = m lor (1 lsl i)
let union = ( lor )
let restrict m ~bytes = m land all ~bytes
let equal = Int.equal

let tainted_bytes m =
  let rec count acc m = if m = 0 then acc else count (acc + (m land 1)) (m lsr 1) in
  count 0 m

let pp ?(bytes = 4) ppf m =
  for i = bytes - 1 downto 0 do
    Format.pp_print_char ppf (if byte m i then '1' else '0')
  done
