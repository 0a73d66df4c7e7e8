(** ptaintd supervision tree — process-isolated workers with crash
    containment, preemptive deadlines, and bounded redelivery.

    The supervisor forks [workers] {!Worker} processes and ships jobs
    to them over {!Proto}-framed pipes, one dispatch in flight per
    worker.  It lives entirely on the daemon's event loop: the server
    adds {!fds} to its [select] read set, routes readable fds through
    {!handle_readable}, and calls {!tick} every loop iteration —
    nothing here spawns a thread or takes a lock.

    A worker is declared sick by pipe EOF (crash, SIGKILL), by missed
    idle heartbeats (SIGSTOP, wedged runtime), or by a blown dispatch
    deadline — job timeout plus grace, so the in-worker cooperative
    watchdog always gets the first shot at a typed [Timeout].  Sick
    workers are SIGKILLed, reaped and respawned with jittered
    exponential backoff; their in-flight job is redelivered to a
    surviving worker up to [max_deliveries] total attempts, so an
    innocent job disturbed by a worker death completes normally and
    final counters stay byte-identical to an undisturbed run.  A job
    that exhausts its deliveries is synthesized into the typed
    failure the cooperative path would have produced, with
    {!Ptaint_campaign.Campaign.failure_counters} deltas.

    Metric families maintained (when [metrics] is set):
    [ptaintd_worker_restarts_total{reason}] (crash/heartbeat/deadline),
    [ptaintd_redeliveries_total], [ptaintd_heartbeat_misses_total],
    [ptaintd_jobs_synthesized_total{kind}]. *)

(** Loop-side bookkeeping for one terminal event, mirroring what the
    in-process backend knows about a finished job. *)
type done_info = {
  i_id : int;
  i_tag : string;
  i_outcome : string;  (** outcome class or failure kind *)
  i_cache_hit : bool;
  i_trace : (int * int) option;
  i_t0 : float;  (** dispatch time of the final delivery *)
  i_t1 : float;
  i_worker : int;  (** worker index; -1 for synthesized failures *)
}

type config = {
  workers : int;
  job_timeout : float option;  (** default watchdog, forwarded to workers *)
  cache_capacity : int;  (** per-worker image cache entries *)
  beat_interval : float;  (** worker idle heartbeat period *)
  beat_tolerance : float;  (** idle silence before a heartbeat miss *)
  hang_timeout : float;  (** dispatch deadline for jobs with no timeout *)
  grace : float;  (** slack past the cooperative watchdog *)
  max_deliveries : int;  (** total dispatch attempts per job *)
  backoff_base : float;  (** respawn backoff seed, seconds *)
  backoff_cap : float;
  log : Ptaint_obs.Log.t option;
  metrics : Ptaint_obs.Metrics.t option;
  close_in_child : unit -> Unix.file_descr list;
      (** parent-side fds a fresh fork must close (listen socket, wake
          pipe, live connections); re-evaluated at every fork *)
  emit :
    cid:int -> Proto.response -> terminal:bool -> info:done_info option -> unit;
      (** completion sink; called on the event-loop thread *)
}

val default_config :
  emit:
    (cid:int -> Proto.response -> terminal:bool -> info:done_info option -> unit) ->
  config
(** 2 workers, 16-entry caches, 0.25 s heartbeat / 2 s tolerance,
    60 s hang timeout, 2 s grace, 2 deliveries, 50 ms–2 s backoff. *)

type t

val create : config -> t
(** Fork the initial worker fleet.  Must run before any domain is
    spawned in this process (fork and domains do not mix). *)

val submit :
  t -> id:int -> cid:int -> label:string -> trace:(int * int) option ->
  Proto.job_spec -> unit
(** Queue one admitted job; it is dispatched to an idle worker
    immediately when one exists.  [label] is the canonical policy
    label used for synthesized failures, [id] the server-side job id
    rewritten onto every worker event. *)

val fds : t -> Unix.file_descr list
(** Live workers' up-pipe fds for the server's [select] read set. *)

val handle_readable : t -> Unix.file_descr -> unit
(** Drain one readable worker pipe: forward events (ids rewritten),
    update heartbeats, detect EOF/garble deaths.  Any other fd is
    ignored, so the server may hand it every readable fd. *)

val tick : t -> now:float -> unit
(** Periodic maintenance: blow deadlines, flag heartbeat misses,
    respawn workers whose backoff elapsed, pump the pending queue.
    Call once per event-loop iteration. *)

val size : t -> int
val pids : t -> int list
(** Live worker pids — what a chaos harness SIGKILLs. *)

val in_flight : t -> int
(** Pending plus dispatched jobs. *)

val stop : t -> unit
(** Send every worker [Quit], wait up to 2 s each, SIGKILL stragglers,
    reap everything.  Call after the drain — in-flight jobs should
    already have completed. *)
