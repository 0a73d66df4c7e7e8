(** In-memory guest filesystem. *)

type t

val create : unit -> t
val add : t -> path:string -> string -> unit
val read : t -> path:string -> string option
val exists : t -> path:string -> bool
val append : t -> path:string -> string -> unit
(** Creates the file if missing. *)

val truncate : t -> path:string -> unit
