(** SIMIPS register names.

    Thirty-two general-purpose registers with the conventional MIPS
    assignment.  Register 0 is hard-wired to zero. *)

type t = int
(** Invariant: [0 <= t < 32]. *)

val zero : t
val at : t
val v0 : t
val v1 : t
val a0 : t
val a1 : t
val a2 : t
val a3 : t
val t0 : t
val t1 : t
val t2 : t
val t3 : t
val t4 : t
val t5 : t
val t6 : t
val t7 : t
val s0 : t
val s1 : t
val s2 : t
val t8 : t
val t9 : t
val sp : t
val fp : t
val ra : t

val name : t -> string
(** Symbolic name, e.g. [name 29 = "sp"]. *)

val of_name : string -> t option
(** Accepts both symbolic ("sp", "v0") and numeric ("29") names. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's numeric style: ["$3"]. *)

val pp_sym : Format.formatter -> t -> unit
(** Prints symbolically: ["$v1"]. *)
