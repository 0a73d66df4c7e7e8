(** Seeded grammar-based Mini-C program/attack generator.

    Emits {!Ptaint_campaign.Job.t} streams for generative campaigns.
    Job [i] is a pure function of [(spec, i)] — no generator state is
    threaded between jobs — so the stream is identical at every [-j]
    level and a checkpointed campaign resumes with {!job} at the
    manifest cursor without replaying the prefix.

    Programs are exp1-family stack-smash handlers (a [gets] into a
    stack buffer that is the frame's highest local); variants differ
    in buffer size and in arithmetic helper functions that move
    detection pcs around.  Each generated case is a (variant, payload)
    pair run once per policy, with payloads split between benign
    lines, saved-frame-pointer clobbers and return-address clobbers. *)

type spec

(** Policy sweep applied to every case, in order: ["none"],
    ["control-only"], ["full"] (see {!Ptaint_sim.Sim.policy_of_label}). *)
val default_policy_labels : string list

(** [spec ~seed ~jobs ()] describes a campaign of [jobs] jobs, each
    case run under every {!default_policy_labels} policy.  [variants]
    (default 8) bounds the distinct-program pool — the image cache hit
    rate is [1 - variants/jobs] in the steady state. *)
val spec : ?variants:int -> seed:int -> jobs:int -> unit -> spec

val jobs_of : spec -> int

(** Campaign identity string embedded in checkpoint manifests; equal
    ids generate equal job streams. *)
val id : spec -> string

(** [job t i] is job [i] (raises [Invalid_argument] outside
    [0 .. jobs_of t - 1]).  With [n] the length of
    {!default_policy_labels}, job [i] runs case [i / n] under policy
    [i mod n]: one case's policy sweep is adjacent in the stream, and
    jobs of one case share program and payload. *)
val job : spec -> int -> Ptaint_campaign.Job.t

(** The policy label job [i] runs under (for building wire specs;
    {!job} itself leaves [Job.policy_label] unset so the campaign
    engine derives the canonical label, exactly as the daemon does). *)
val policy_label : spec -> int -> string

(** Generated Mini-C source of variant [v mod variants] (debugging /
    corpus inspection). *)
val source : spec -> int -> string

val jobs : spec -> Ptaint_campaign.Job.t Seq.t
