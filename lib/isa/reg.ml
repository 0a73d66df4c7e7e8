type t = int

let zero = 0
let at = 1
let v0 = 2
let v1 = 3
let a0 = 4
let a1 = 5
let a2 = 6
let a3 = 7
let t0 = 8
let t1 = 9
let t2 = 10
let t3 = 11
let t4 = 12
let t5 = 13
let t6 = 14
let t7 = 15
let s0 = 16
let s1 = 17
let s2 = 18
let t8 = 24
let t9 = 25
let sp = 29
let fp = 30
let ra = 31

let names =
  [| "zero"; "at"; "v0"; "v1"; "a0"; "a1"; "a2"; "a3";
     "t0"; "t1"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7";
     "s0"; "s1"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
     "t8"; "t9"; "k0"; "k1"; "gp"; "sp"; "fp"; "ra" |]

let name r = names.(r)

let of_name s =
  let s = if String.length s > 0 && s.[0] = '$' then String.sub s 1 (String.length s - 1) else s in
  match int_of_string_opt s with
  | Some n when n >= 0 && n < 32 -> Some n
  | Some _ -> None
  | None ->
    let rec find i = if i >= 32 then None else if names.(i) = s then Some i else find (i + 1) in
    find 0

let pp ppf r = Format.fprintf ppf "$%d" r
let pp_sym ppf r = Format.fprintf ppf "$%s" (name r)
