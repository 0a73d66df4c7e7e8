(** Blocking ptaintd client — the [--connect] side of [ptaint_run].

    One Unix-domain connection, used from one thread.  The server
    streams {!Proto.event} frames for in-flight jobs interleaved with
    direct replies; the client stashes events met while waiting for a
    reply and yields them from {!next_event} in arrival order, so
    callers may freely mix submissions, telemetry scrapes and event
    pumping. *)

exception Protocol_error of string
(** Framing violation, unexpected reply, server [Error_frame], or the
    server hanging up mid-frame. *)

type t

val connect : ?client:string -> ?retries:int -> ?backoff:float -> string -> t
(** Connect to the socket path and complete the [Hello] handshake.
    With [retries] (default 0: fail fast), a refused or absent socket
    is retried up to that many extra times with capped jittered
    exponential backoff from [backoff] seconds (default 0.05, capped
    at 1 s) — enough to ride out a daemon still binding its socket.
    The retry budget also arms {!submit} reconnection.  Raises
    [Unix.Unix_error] once the budget is exhausted, and
    {!Protocol_error} on a version mismatch. *)

val banner : t -> string

val submit : t -> Proto.job_spec -> (int, string) result
(** [Ok id] on admission; [Error reason] for an admission-control or
    validation rejection (the connection stays usable).  When the
    client was connected with [retries > 0] and the connection dies
    mid-submit ([EPIPE], [ECONNRESET], EOF), the client backs off,
    reconnects and resends.  Pair retries with an idempotency key
    ([Proto.job_spec.spec_idem]) to make resubmission exactly-once:
    the server attaches the retry to the live admission or replays
    the recorded result, never running the job twice.  Stashed events
    survive a reconnect; {!next_event} itself does not retry. *)

val next_event : t -> Proto.event
(** The next streamed job event, blocking as needed. *)

val stats_full : t -> string
(** The daemon's full telemetry snapshot in Prometheus text
    exposition format ([Stats_full] / [Stats_full_ok]). *)

val close : t -> unit
(** Send [Quit] best-effort and close the fd. *)

type outcome =
  | Done of Proto.event  (** terminal: [Finished] or [Job_failed] *)
  | Refused of string  (** rejected at admission; never ran *)

val run_batch :
  ?on_event:(Proto.event -> unit) -> t -> Proto.job_spec list -> outcome list
(** Submit every spec, pump events until each accepted job reaches a
    terminal event, and return outcomes in submission order — the
    building block for daemon-vs-batch output parity.  [on_event] sees
    every streamed event ([Started] and terminal) as it arrives, for
    client-side tracing and progress display. *)
