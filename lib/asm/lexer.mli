(** Line-level tokenizer for SIMIPS assembly. *)

type token =
  | Ident of string      (** mnemonic, label or symbol reference *)
  | Register of Ptaint_isa.Reg.t
  | Int of int
  | Str of string        (** double-quoted, escapes resolved *)
  | Comma
  | Colon
  | Lparen
  | Rparen

val tokenize : string -> (token list, string) result
(** Tokenize one line; comments ([#], [;], [//]) are stripped.
    Integer literals: decimal, [0x] hex, negative, character ['c']
    with the usual escapes. *)
