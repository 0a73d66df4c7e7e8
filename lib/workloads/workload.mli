(** The SPEC-2000-INT-like guest benchmarks used for the Table 3
    false-positive experiment: six programs with the workload
    character of BZIP2, GCC, GZIP, MCF, PARSER and VPR, each consuming
    tainted external input, self-verifying its computation, and
    expected to run to completion on the protected architecture
    without a single alert. *)

type t = {
  name : string;      (** SPEC counterpart name, e.g. "BZIP2" *)
  description : string;
  source : string;    (** Mini-C *)
  input : unit -> string;
}

val bzip2 : t
val gcc : t
val gzip : t
val mcf : t
val parser : t
val vpr : t
val all : t list

type row = {
  workload : t;
  program_bytes : int;  (** text + data, Table 3 "Program size" *)
  input_bytes : int;    (** Table 3 "Total number of input bytes" *)
  instructions : int;   (** Table 3 "Total number of instructions" *)
  alerts : int;
  outcome : Ptaint_sim.Sim.outcome;
  stdout : string;
}

val run : ?policy:Ptaint_cpu.Policy.t -> ?untaint_writeback:bool -> t -> row
(** Compile (cached), load with the workload input on stdin, run to
    completion, and collect the Table 3 measurements.  The loaded
    image is cached too, as a copy-on-write snapshot template
    (domain-safe), so only the first run of a workload pays the
    assemble + load cost; the policy and stdin may differ between
    runs, since only argv/env/sources shape the image. *)

val program : t -> Ptaint_asm.Program.t
(** The compiled guest (cached; safe to call from concurrent
    domains). *)

val config_for : t -> Ptaint_sim.Sim.config
(** The workload's standard run configuration — its input on stdin,
    its name as argv — under the default policy.  Batch drivers pair
    this with {!program} to submit workloads as campaign jobs. *)

val row_of : t -> Ptaint_asm.Program.t -> Ptaint_sim.Sim.result -> row
(** Collect the Table 3 measurements from an already-run
    simulation. *)
