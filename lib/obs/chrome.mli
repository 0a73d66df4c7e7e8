(** Chrome [trace_event] JSON exporter.

    Emits the JSON-array format that [chrome://tracing] and Perfetto
    load directly: complete events ([ph:"X"]) for spans and instant
    events ([ph:"i"]) for the simulator's point events.  Two clocks
    meet here.  {!add_events} maps the guest {!Event.t} taxonomy onto
    tracks, one guest cycle as one microsecond, so single-run
    timelines are deterministic.  {!job_span} is the one writer of
    wall-clock job spans, in epoch microseconds. *)

type t

val create : unit -> t

val complete :
  t -> name:string -> ?cat:string -> ?pid:int -> tid:int -> ts_us:float -> dur_us:float ->
  ?args:(string * string) list -> unit -> unit

val add_events : t -> ?pid:int -> ?tid:int -> Event.t list -> unit
(** [pid] partitions the timeline per process (default [1]), so
    client- and daemon-side traces of the same jobs merge into one
    document without colliding. *)

val job_span :
  t -> name:string -> cat:string -> ?pid:int -> tid:int -> started:float -> finished:float ->
  outcome:string -> ?args:(string * string) list -> ?trace:int * int -> unit -> unit
(** One job's wall-clock span, from two [Unix.gettimeofday] stamps:
    epoch-microsecond [ts] and [dur], so campaign, client and daemon
    traces of the same jobs merge into one timeline.  Its args are
    [outcome], then [args], then the client-seeded [trace] id (as
    {!Log.hex_id}) and [span] when the job carried one.  [tid] is the
    track: the worker domain or process that ran the job. *)

val event_count : t -> int

val contents : t -> string
(** The complete JSON document. *)

val write_file : t -> string -> unit
