(** Reproduction of every table and figure in the paper's evaluation.

    Each function regenerates one artifact as plain text; {!all} runs
    the full evaluation.  EXPERIMENTS.md records the outputs next to
    the paper's numbers. *)

val fig1 : unit -> string
(** Figure 1: CERT advisory breakdown, 2000–2003. *)

val fig2 : unit -> string
(** Figure 2: anatomy of the three synthetic attacks (layouts and
    what the overflow taints), demonstrated live. *)

val fig3 : unit -> string
(** Figure 3: the architecture — detector placement and taint-tracking
    hardware activity measured by the pipeline model. *)

val tab1 : unit -> string
(** Table 1: each ALU taintedness-propagation rule executed on the
    machine, with register taint masks before and after. *)

val synthetic : unit -> string
(** Section 5.1.1: detection of exp1/exp2/exp3 with the alert lines,
    plus the full incident report for exp1 — backtrace, tainted
    registers, last-instructions window and taint provenance. *)

val tab2 : unit -> string
(** Table 2: the WU-FTPD attack/detection transcript. *)

val real_world : unit -> string
(** Section 5.1.2: NULL HTTPD, GHTTPD and traceroute attacks. *)

val coverage : ?domains:int -> ?trace:Ptaint_obs.Chrome.t -> unit -> string
(** Section 5.1: the security-coverage matrix — every attack under no
    protection, control-data-only protection, and pointer
    taintedness; plus benign-input runs.  The whole matrix is
    submitted as one [Campaign] batch executed on [domains] workers
    (default: all cores); the rendered table is identical whatever
    [domains] is, modulo the bracketed wall time.  The report includes
    the per-policy campaign metrics (deterministic counters only).
    [trace] receives one {!Ptaint_obs.Chrome.job_span} per campaign
    job. *)

val tab3 : ?domains:int -> ?trace:Ptaint_obs.Chrome.t -> unit -> string
(** Table 3: false-positive evaluation on the six SPEC-like
    workloads, run as a campaign batch. *)

val tab4 : ?domains:int -> ?trace:Ptaint_obs.Chrome.t -> unit -> string
(** Table 4: the three false-negative scenarios, plus the contrast
    cases showing where detection resumes — five simulations batched
    as one campaign. *)

val overhead : unit -> string
(** Section 5.4: architectural overhead — pipeline timing with the
    taint hardware accounted, storage overhead, and the
    kernel-tainting software overhead (input bytes / instructions). *)

val ablation : unit -> string
(** Design-choice ablation: the compare-untaint rule (hardware) and
    the register-residency write-back (compiler) toggled off. *)

val extension : unit -> string
(** Section 5.3's proposed future work, implemented: programmer
    annotations ([guard]/[unguard]) that flag tainted writes into
    critical data, turning the Table 4(B) false negative into a
    detection. *)

val resilience : ?domains:int -> ?trace:Ptaint_obs.Chrome.t -> unit -> string
(** Fault injection into the detection mechanism itself
    ({!Ptaint_fi.Fi}): the full attack catalogue × fault models
    (data flips, register/memory taint loss, total taint wipe,
    stuck-at-clean taint RAM, spurious taint) × policies, each trial
    classified against its fault-free baseline — detection rate,
    false-negative and false-positive deltas, detection latency in
    instructions, and the silent-corruption rate.  Ends with a
    hostile-job campaign (spinning guest, crashing thunk, malformed
    programs, unknown syscall) demonstrating the hardened runtime:
    watchdog timeouts, retries and typed failures, with every job
    accounted for.  Seeded with 42, so the output is byte-identical
    at any [domains]. *)

val generative : ?domains:int -> unit -> string
(** Generative campaign: a grammar-based sweep ({!Ptaint_gen.Gen},
    seed 42) of 60 synthesized (program, payload) pairs over 6 program
    variants, each run under every policy, streamed through the
    arena-recycling campaign engine.  Reports coverage-style fitness:
    per-policy detections, distinct detection sites, and the policy
    disagreement rate (cases where the policies reach different
    verdicts).  Byte-identical at any [domains]. *)

val all : ?domains:int -> ?trace:Ptaint_obs.Chrome.t -> unit -> string
