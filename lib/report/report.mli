(** Plain-text rendering for the experiment harness: aligned tables,
    horizontal bar charts, and section banners. *)

val table : headers:string list -> string list list -> string
(** Column-aligned ASCII table with a header rule. *)

val bar_chart : ?width:int -> (string * int) list -> string
(** One bar per row, scaled to the maximum value. *)

val section : string -> string
(** A banner line for a report section. *)

val kv : (string * string) list -> string
(** Aligned "key: value" lines. *)

val counters : ?width:int -> (string * int) list -> string
(** One [name value] counter per line, the name padded to [width]
    (default 28) columns — the awk-friendly dump format shared by
    single-run [--metrics] and the campaign summaries. *)

val commas : int -> string
(** 15139 -> "15,139" — the paper prints large counts this way. *)
