(** Structured, leveled logging.

    A logger turns records — timestamp, level, source, message, typed
    key/value fields — into logfmt or JSON lines and hands each line
    to a {!sink} as it is logged, under one lock shared by every
    domain.  A call site below the configured level costs one
    comparison — cheap enough to leave compiled into inner loops
    (gated by the micro/log-off-10k bench row). *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> (level, string) result
(** Accepts ["debug"], ["info"], ["warn"] (or ["warning"]) and
    ["error"], case-insensitively. *)

(** {1 Typed fields} *)

type field

val str : string -> string -> field
val int : string -> int -> field
val float : string -> float -> field
val bool : string -> bool -> field

(** {1 Rendering} *)

type format = Logfmt | Json

val format_of_string : string -> (format, string) result

val render :
  format -> ts:float -> level:level -> src:string -> msg:string -> field list -> string
(** One rendered record, without the trailing newline.  Exposed for
    tests; [log] stamps the wall clock and applies the logger's
    format. *)

(** {1 Sinks} *)

type sink

val fn_sink : (string -> unit) -> sink
(** Each record, as one newline-terminated line, is passed to the
    function. *)

val buffer_sink : Buffer.t -> sink
val channel_sink : out_channel -> sink

val file_sink : ?max_bytes:int -> string -> sink
(** Appends to [path].  With [max_bytes], a chunk that would push the
    file past the cap first rotates [path] to [path ^ ".1"]
    (replacing any previous rotation); a single chunk larger than the
    cap is written whole rather than rotating forever. *)

(** {1 Loggers} *)

type t

val create : ?level:level -> ?format:format -> sink -> t
(** Defaults: [level = Info], [format = Logfmt].  Every record is
    written and flushed to the sink as it is logged. *)

val enabled : t -> level -> bool

val log : t -> level -> src:string -> string -> field list -> unit

val debug : t -> src:string -> string -> field list -> unit
val info : t -> src:string -> string -> field list -> unit
val warn : t -> src:string -> string -> field list -> unit
val error : t -> src:string -> string -> field list -> unit

val flush : t -> unit
(** Flush the sink. *)

val close : t -> unit
(** {!flush}, then close the sink.  Further records are dropped. *)

val hex_id : int -> string
(** Fixed-width lowercase hex used for trace ids in every artifact
    (logs, JSONL, Chrome spans), so one grep follows a job across
    processes. *)
