(** Taint-source policy: which external input channels mark data
    tainted (paper section 4.4: network, file system, keyboard,
    command-line arguments, environment variables). *)

type t = {
  network : bool;
  file : bool;
  stdin : bool;
  args : bool;
  env : bool;
}

val all : t
(** The paper's configuration — every external source is tainted. *)

val none : t
