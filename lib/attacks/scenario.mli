(** Attack scenarios and the security-coverage matrix (section 5.1).

    A scenario bundles a vulnerable guest program, a uniform list of
    named {!case}s — the malicious input that exploits it and the
    benign inputs for false-positive checking — and an oracle that
    recognises a successful compromise.  Running every case of every
    scenario under each protection policy yields the coverage matrix
    the paper's evaluation is built around: pointer taintedness
    detects everything, control-data-only protection misses the
    non-control-data attacks, and no protection lets them succeed.

    Because cases are plain data, batch drivers generate campaign jobs
    mechanically: [scenario × case × policy] enumerates the whole
    matrix (see [Ptaint_campaign.Campaign]). *)

type kind = Control_data | Non_control_data

type verdict =
  | Detected of Ptaint_cpu.Machine.alert
  | Compromised of string  (** evidence, e.g. "exec'd /bin/sh" *)
  | Crashed of string
  | Survived

type case = {
  case_name : string;  (** e.g. "attack", "benign" *)
  malicious : bool;
      (** malicious cases are expected to be [Detected] under pointer
          taintedness; benign cases must be [Survived] under every
          policy *)
  config : Ptaint_asm.Program.t -> Ptaint_sim.Sim.config;
}

type t = {
  name : string;
  kind : kind;
  description : string;
  build : unit -> Ptaint_asm.Program.t;
  cases : case list;  (** at least one malicious case *)
  compromised : Ptaint_sim.Sim.result -> string option;
}

val attack_case :
  ?name:string -> (Ptaint_asm.Program.t -> Ptaint_sim.Sim.config) -> case
(** A malicious case (default name ["attack"]). *)

val benign_case :
  ?name:string -> (Ptaint_asm.Program.t -> Ptaint_sim.Sim.config) -> case
(** A benign case (default name ["benign"]). *)

val attack : t -> case
(** The scenario's first malicious case. *)

val benign : t -> case option
(** The scenario's first benign case, if any. *)

val attack_config : t -> Ptaint_asm.Program.t -> Ptaint_sim.Sim.config
(** [attack_config t] is [(attack t).config] — the config of the
    primary exploit input. *)

val verdict_of : t -> Ptaint_sim.Sim.result -> verdict
(** Classify a finished simulation with the scenario's compromise
    oracle — what batch drivers apply to campaign results. *)

val run :
  ?policy:Ptaint_cpu.Policy.t -> t -> verdict * Ptaint_sim.Sim.result
(** Build the guest, run the primary attack case under [policy]
    (default: full pointer taintedness) and classify the result with
    {!verdict_of}. *)

val run_benign :
  ?policy:Ptaint_cpu.Policy.t -> t -> verdict * Ptaint_sim.Sim.result
(** Run the first benign case — anything but [Survived] is a false
    positive (or an app bug).  Raises [Invalid_argument] when the
    scenario has no benign case. *)

val kind_name : kind -> string
val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

val coverage_policies : (string * Ptaint_cpu.Policy.t) list
(** "none", "control-data only" (Minos-style), "pointer taintedness". *)

val main_frame_pointer : Ptaint_asm.Loader.image -> int
(** The guest [main]'s frame pointer, derived from the deterministic
    stack layout — what an attacker computes with a debugger. *)
