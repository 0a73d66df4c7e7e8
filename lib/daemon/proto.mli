(** ptaintd wire protocol — the codec and the one framing path of the
    detection service.

    Frames are length-prefixed and versioned:

    {v
    offset 0  'P' 'D'      magic
    offset 2  version      (= 6; every other version byte is refused)
    offset 3  frame tag
    offset 4  u32 BE       payload length
    offset 8  payload
    v}

    All integers are big-endian; strings are u32-length-prefixed;
    lists are u16-count-prefixed; an optional field is a presence
    byte (0 or 1) followed, when 1, by its value, always at the same
    position in its frame.  Seconds travel as the nearest whole number
    of microseconds.  The codec itself does no I/O: the encoders write
    whole frames into an {!outbox}, the decoders read one frame from
    the front of a byte string or a {!reader}'s buffer — [Ok None]
    means "incomplete, read more" — and every corruption maps to a
    typed {!error} (no exceptions escape).  After any error the
    stream is unsalvageable by design: framing is length-prefixed, so
    the only safe response is an {!Error_frame} and a close.

    Every value has exactly one encoding, and the decoders accept
    nothing else: a presence or bool byte other than 0 and 1, an i64
    outside OCaml's [int] range and a seconds field beyond 2{^50} us
    are [Malformed].  So any frame a decoder accepts re-encodes to
    exactly the bytes it was decoded from.  Every peer runs the same
    build, so the version byte is checked for equality: a client
    meeting a server of another version fails at the first frame
    header.  Tags 0x03 and 0x85, v5's [Stats] request and its reply,
    are unassigned: a frame carrying either is [Bad_tag]. *)

val version : int

val header_bytes : int

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_tag of int
  | Oversized of int  (** announced payload length *)
  | Malformed of string  (** payload structure violation *)

val error_message : error -> string

(** {1 Job description}

    The serializable subset of {!Ptaint_campaign.Job.t}: symbolic
    source payload, remote-safe config fields, structural fault plan.
    Local-only parts (pre-built [Image] payloads, [expect] closures,
    host [fs_init]) never cross the socket. *)

type wire_payload =
  | Wire_asm of string  (** SIMIPS assembly source *)
  | Wire_c of string  (** Mini-C source *)

type job_spec = {
  spec_tag : string;
  spec_payload : wire_payload;
  spec_policy : string option;
      (** canonical policy label ({!Ptaint_sim.Sim.policy_of_label}) *)
  spec_argv : string list;
  spec_env : (string * string) list;
  spec_stdin : string;
  spec_sessions : string list list;
  spec_max_instructions : int option;
  spec_injections : Ptaint_fi.Fi.injection list;
  spec_timeout : float option;
      (** seconds; carried as integer microseconds on the wire *)
  spec_trace : (int * int) option;
      (** correlation id: (trace id, span id) *)
  spec_idem : string option;
      (** idempotency key.  Two submissions with
          the same key run the job at most once — the second receives
          the original job id (and, when already finished, a replay
          of the original terminal event). *)
}

val job_spec :
  ?policy:string ->
  ?argv:string list ->
  ?env:(string * string) list ->
  ?stdin:string ->
  ?sessions:string list list ->
  ?max_instructions:int ->
  ?injections:Ptaint_fi.Fi.injection list ->
  ?timeout:float ->
  ?trace:int * int ->
  ?idem:string ->
  tag:string ->
  wire_payload ->
  job_spec

val job_of_spec : job_spec -> (Ptaint_campaign.Job.t, string) result
(** Materialize the unified job the campaign engine runs.  [Error]
    carries a human-readable message (unknown policy label). *)

val spec_of_job :
  ?policy:string -> Ptaint_campaign.Job.t -> (job_spec, string) result
(** Wire form of a local job; [Error] for [Image] payloads, which
    have no stable content serialization. *)

(** {1 Frames} *)

type request =
  | Hello of { client : string }
  | Submit of job_spec
  | Stats_full
      (** full telemetry snapshot; answered with {!Stats_full_ok}
          carrying Prometheus text exposition *)
  | Ping of string  (** payload echoed back in {!Pong} *)
  | Quit  (** polite goodbye; the server drops the connection *)

type event =
  | Started of { id : int }
  | Finished of {
      id : int;
      tag : string;
      outcome : string;  (** rendered {!Ptaint_sim.Sim.pp_outcome} *)
      exit_code : int;  (** process-style: guest exit code, 3 alert, 4 fault *)
      instructions : int;
      syscalls : int;
      policy_label : string;
      cache_hit : bool;  (** booted from the daemon's snapshot cache *)
      counters : (string * int) list;
          (** {!Ptaint_campaign.Campaign.job_counters} deltas, in
              registration order — merging them per label in
              submission order rebuilds the batch runner's metrics
              registries byte-for-byte *)
      stdout : string;
      trace : (int * int) option;
      alert_pc : int option;
          (** pc of the detected attack's alert *)
    }
  | Job_failed of {
      id : int;
      tag : string;
      kind : string;  (** {!Ptaint_campaign.Campaign.kind_name} *)
      message : string;
      policy_label : string;
      counters : (string * int) list;
      trace : (int * int) option;
    }

type response =
  | Hello_ok of { banner : string }
      (** the frame header carries the server's protocol version *)
  | Accepted of { id : int; tag : string }
  | Rejected of { tag : string; reason : string }
      (** admission control: queue full, quota exceeded, bad policy *)
  | Job_event of event
  | Stats_full_ok of string
      (** Prometheus text exposition (format 0.0.4) of the daemon's
          full metrics registry *)
  | Pong of string
  | Error_frame of string  (** protocol-level failure; connection closes *)

val encode_request : request -> string
val encode_response : response -> string
(** One whole frame as a string — the {!add_request}/{!add_response}
    encoder run into a private outbox. *)

val decode_request : string -> ((request * int) option, error) result
(** Decode one frame from the front of [buf].  [Ok None]: incomplete.
    [Ok (Some (req, consumed))]: drop [consumed] bytes and go again. *)

val decode_response : string -> ((response * int) option, error) result

(** {1 Frame streams}

    The one framing path every endpoint uses: the client, the server's
    connections, the supervisor's worker pipes and the worker itself.
    I/O goes through caller-supplied functions with the shape of
    [Unix.read]/[Unix.write] ([buf off len], returning a byte count),
    so a stream runs over any descriptor, blocking or not, or over
    memory in tests.  Neither side allocates a buffer per read or per
    write once its buffer has reached the size of the frames in
    flight. *)

type 'a reader
(** A reusable receive buffer with a read cursor, decoding each whole
    frame in place. *)

val request_reader : unit -> request reader
val response_reader : unit -> response reader

val fill : 'a reader -> (Bytes.t -> int -> int -> int) -> int
(** [fill r read] makes room for the pending frame, then calls [read]
    once on the buffer's free tail and returns its count — [0] is end
    of stream.  Room is the rest of the pending frame once its header
    is in, else the header.  A grown buffer shrinks back to its
    initial size once the bytes it holds fit again.  Exceptions from
    [read] propagate, the reader unchanged.  A reader in error, or
    whose pending header is bad (an oversized announcement included),
    reads nothing and returns [0]: the buffer is never sized by a
    header it rejects, and {!next} reports the error. *)

val next : 'a reader -> ('a option, error) result
(** Decode the next whole buffered frame, exactly as
    {!decode_request}/{!decode_response} would: [Ok None] means
    {!fill} first.  The first error is sticky. *)

val buffered : 'a reader -> int
(** Bytes read but not yet decoded. *)

val capacity : 'a reader -> int
(** Current buffer size in bytes. *)

type outbox
(** Encoded frames waiting to be written out. *)

val outbox : unit -> outbox
val add_request : outbox -> request -> unit
val add_response : outbox -> response -> unit
(** Encode one frame straight into the outbox.  Raises
    [Invalid_argument] — leaving the outbox as it was — for a payload
    over the 16 MiB payload limit, a list over 65535 entries or a NaN
    seconds field.  A seconds field beyond ±2{^50} us (35 years)
    saturates there. *)

val pending : outbox -> int
(** Bytes encoded but not yet written. *)

val flush : outbox -> (Bytes.t -> int -> int -> int) -> int
(** Call the write function once on the pending bytes (when there are
    any) and return how many it took.  Exceptions propagate, the
    outbox unchanged. *)

val flush_all : outbox -> (Bytes.t -> int -> int -> int) -> unit
(** {!flush} until nothing is pending — for blocking descriptors. *)

val read_fd : Unix.file_descr -> Bytes.t -> int -> int -> int
val write_fd : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.read]/[Unix.write] retried on [EINTR]: the blocking
    endpoints' read and write functions. *)
