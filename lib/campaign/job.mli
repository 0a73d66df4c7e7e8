(** The unified description of one detection job.

    Every front end — the one-shot CLI, the batch runner, the
    experiment matrices and the ptaintd daemon protocol — builds this
    same record and submits it to the campaign engine
    ({!Campaign.run_stream}, {!Campaign.run_jobs}, {!Campaign.run_job}),
    so a job means the same thing whether it arrives on a command
    line, in a batch, or over a socket.

    The payload stays symbolic (source text, or a pre-assembled
    program for in-process callers): that is what lets the daemon key
    its content-keyed cache on the program bytes and lets the campaign
    engine share one boot image across identical programs. *)

type payload =
  | Asm_source of string  (** SIMIPS assembly, assembled on demand *)
  | C_source of string  (** Mini-C, compiled against the guest libc *)
  | Image of Ptaint_asm.Program.t  (** pre-assembled, in-process only *)

type t = {
  tag : string;  (** job name, echoed through results and reports *)
  payload : payload;
  config : Ptaint_sim.Sim.config;
  policy_label : string option;
      (** bucket for detection counts; derived from [config.policy]
          when absent *)
  injections : Ptaint_fi.Fi.injection list;
      (** fault plan, applied by {!Ptaint_fi.Fi.run_plan} *)
  timeout : float option;
      (** per-job wall-clock watchdog (seconds); overrides the
          campaign-wide default *)
  expect : (Ptaint_sim.Sim.result -> string option) option;
      (** local-only result expectation — not carried on the wire *)
  trace : (int * int) option;
      (** correlation id: (client-seeded 63-bit trace id, per-job
          span id), echoed through results, JSONL sinks, log lines
          and Chrome spans *)
}

val make :
  tag:string ->
  ?config:Ptaint_sim.Sim.config ->
  ?policy_label:string ->
  ?injections:Ptaint_fi.Fi.injection list ->
  ?timeout:float ->
  ?expect:(Ptaint_sim.Sim.result -> string option) ->
  ?trace:int * int ->
  payload ->
  t

val program : t -> Ptaint_asm.Program.t
(** Build the guest program: assemble, compile, or return the image.
    Raises the toolchain's typed errors
    ({!Ptaint_asm.Assembler.Asm_error}, {!Ptaint_cc.Cc.Error}) on
    malformed sources — the campaign engine classifies them as loader
    failures. *)

val image_key : t -> string
(** Exact content key of everything that shapes the loaded memory
    image: program text plus argv/env/sources, encoded with a length
    before every string and a count before every list, so two jobs get
    equal keys exactly when those fields are equal.  Jobs with equal
    keys can boot from one snapshot template.  [Image] payloads are
    keyed by a digest of the whole marshalled program, so two images
    with equal content share a key and two that differ anywhere do
    not.  The key is binary and about as long as the source; it is for
    lookups, not for printing. *)
