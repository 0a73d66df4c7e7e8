type t =
  | Void
  | Int
  | Uint
  | Char
  | Ptr of t
  | Array of t * int
  | Struct of string
  | Func of signature

and signature = { ret : t; params : t list; varargs : bool }

type struct_layout = { fields : (string * t * int) list; size : int }
type env = (string, struct_layout) Hashtbl.t

let rec size_of env = function
  | Void -> invalid_arg "size_of void"
  | Func _ -> invalid_arg "size_of function"
  | Int | Uint | Ptr _ -> 4
  | Char -> 1
  | Array (elt, n) -> size_of env elt * n
  | Struct name -> (
    match Hashtbl.find_opt env name with
    | Some l -> l.size
    | None -> invalid_arg ("size_of incomplete struct " ^ name))

let rec align_of env = function
  | Void | Func _ -> 1
  | Int | Uint | Ptr _ -> 4
  | Char -> 1
  | Array (elt, _) -> align_of env elt
  | Struct name -> (
    match Hashtbl.find_opt env name with
    | Some l -> if l.size >= 4 then 4 else 1
    | None -> 1)

let align_up v a = (v + a - 1) land lnot (a - 1)

let layout_struct env fields =
  let off = ref 0 in
  let placed =
    List.map
      (fun (name, ty) ->
        off := align_up !off (align_of env ty);
        let this = !off in
        off := !off + size_of env ty;
        (name, ty, this))
      fields
  in
  { fields = placed; size = align_up !off 4 }

let field env struct_name field_name =
  match Hashtbl.find_opt env struct_name with
  | None -> None
  | Some l ->
    List.find_map
      (fun (n, ty, off) -> if n = field_name then Some (ty, off) else None)
      l.fields

let is_integer = function Int | Uint | Char -> true | _ -> false
let is_pointer = function Ptr _ | Array _ -> true | _ -> false

let is_unsigned_cmp a b =
  match (a, b) with
  | Uint, _ | _, Uint -> true
  | (Ptr _ | Array _), _ | _, (Ptr _ | Array _) -> true
  | _ -> false

let decay = function Array (elt, _) -> Ptr elt | ty -> ty

