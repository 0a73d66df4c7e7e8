(** Mini-C type system.

    A deliberately small C subset, but one faithful to the memory
    layouts the paper's attacks depend on: [char] is one byte, [int]
    and pointers four, arrays are contiguous, structs are laid out in
    declaration order.  [unsigned] exists because the integer-overflow
    false-negative scenario (Table 4(A)) hinges on signed/unsigned
    conversion. *)

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
(** field name, type, byte offset *)

type env = (string, struct_layout) Hashtbl.t
(** Struct table. *)

val size_of : env -> t -> int
(** Size in bytes.  Raises [Invalid_argument] for [Void] and [Func]. *)

val layout_struct : env -> (string * t) list -> struct_layout
val field : env -> string -> string -> (t * int) option
(** [field env struct_name field_name] *)

val is_integer : t -> bool
val is_pointer : t -> bool
val is_unsigned_cmp : t -> t -> bool
(** Whether a comparison between these operand types is unsigned
    (either side unsigned, or pointers). *)

val decay : t -> t
(** Array-to-pointer decay. *)

