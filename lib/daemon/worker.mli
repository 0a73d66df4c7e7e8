(** ptaintd worker process — the child half of the supervision tree.

    {!main} is the entire life of a forked worker: announce readiness
    ([Hello_ok]), then loop reading {!Proto.request} frames from the
    supervisor pipe and answering with {!Proto.response} frames — one
    terminal [Job_event] per [Submit] (the supervisor announces
    [Started] itself), a [Pong] heartbeat every 0.25 s while idle.  Jobs run through the
    same runner as the in-process backend ({!run_job}, over a
    per-worker {!Ptaint_campaign.Campaign.Images} cache), so the two
    backends emit byte-identical events for identical jobs.

    The worker is deliberately single-threaded: while a job runs it
    cannot heartbeat, and the supervisor covers that window with the
    dispatch deadline rather than the heartbeat. *)

type config = {
  cache_capacity : int;  (** per-worker image cache entries *)
  job_timeout : float option;
      (** default per-job watchdog; a job's own timeout wins *)
}

val main : config:config -> rd:Unix.file_descr -> wr:Unix.file_descr -> unit
(** Run the worker loop over the supervisor pipe pair until the pipe
    reaches EOF, a [Quit] frame arrives, or the stream garbles.
    Never raises on a clean shutdown; callers fork and [_exit] around
    it.  Events carry job id 0 — the supervisor rewrites ids, since
    at dispatch depth one it always knows which job a worker runs. *)

(** {1 Shared job runner}

    Used by both backends so events are identical whichever executed
    the job. *)

val run_job :
  images:Ptaint_campaign.Campaign.Images.t ->
  job_timeout:float option ->
  id:int ->
  Ptaint_campaign.Job.t ->
  Proto.event * Ptaint_campaign.Campaign.job_result
(** Run one job through {!Ptaint_campaign.Campaign.run_job}, booted
    through the calling domain's arena, and reduce it to its terminal
    wire event ({!event_of_job_result}).  Also returns the result the
    event came from, valid only until the next arena boot on this
    domain. *)

val event_of_job_result :
  id:int ->
  job:Ptaint_campaign.Job.t ->
  cache_hit:bool ->
  Ptaint_campaign.Campaign.job_result ->
  Proto.event
(** The wire event for one finished job, with
    {!Ptaint_campaign.Campaign.job_counters} deltas.  A result that
    fails to serialize becomes a typed ["crashed"] failure with
    {!Ptaint_campaign.Campaign.failure_counters} deltas instead of
    killing the worker. *)

val outcome_of_event : Proto.event -> string
(** The [outcome] label of [ptaintd_jobs_total] recovered from a wire
    event: failures carry their kind; finished jobs are classified
    from the stable {!Ptaint_sim.Sim.pp_outcome} prefix into the
    {!Ptaint_campaign.Campaign.outcome_name} classes ["exited"],
    ["alert"], ["fault"], ["trap"] or ["out-of-fuel"]. *)

(** {1 The daemon's record of a finished job} *)

type done_job = {
  j_id : int;
  j_tag : string;
  j_outcome : string;  (** {!outcome_of_event} *)
  j_cache_hit : bool;  (** finished from a cached image *)
  j_trace : (int * int) option;
  j_t0 : float;  (** start (in-process) or dispatch of the final delivery *)
  j_t1 : float;
  j_worker : int;
      (** worker domain id in-process, worker process index under
          isolation, [-1] for a failure the supervisor synthesized *)
  j_superblock : (string * int) list;
      (** translation-tier event counts; in-process only *)
}

val done_job :
  t0:float -> worker:int -> ?superblock:(string * int) list -> Proto.event -> done_job
(** The record for one terminal event, stamped [j_t1] now.  Both
    backends account every finished job through it, so a job counts
    as a cache hit only if it {e finished} from a cached image: a
    [Job_failed] event is a miss.  Raises [Invalid_argument] on
    [Started]. *)
