type t = { network : bool; file : bool; stdin : bool; args : bool; env : bool }

let all = { network = true; file = true; stdin = true; args = true; env = true }
let none = { network = false; file = false; stdin = false; args = false; env = false }
