(* ptaintd wire protocol: length-prefixed, versioned, typed frames.

   The codec does no I/O — encode appends whole frames to an outbox,
   decode consumes a frame from the front of a byte buffer, and the
   frame streams below take their read and write functions from the
   caller — so it can be unit-tested exhaustively without a socket and
   is the one framing path of the client, the server's event loop, the
   supervisor and its workers.  Framing is deliberately dumb:

     offset 0   'P'                 magic
     offset 1   'D'
     offset 2   version (= 6; every other version byte is refused)
     offset 3   frame tag
     offset 4   payload length, u32 big-endian
     offset 8   payload bytes

   Every multi-byte integer on the wire is big-endian.  Strings are
   u32-length-prefixed byte strings; lists are u16-count-prefixed;
   an optional field is a presence byte (0 or 1) followed, when 1, by
   its value, at a fixed position in its frame.  Payloads above
   [max_payload] are rejected before buffering, so a hostile client
   cannot make the server allocate unboundedly.

   Each value has exactly one encoding, and the decoder accepts
   nothing else: presence and bool bytes are 0 or 1, an i64 must fit
   an OCaml int, and seconds travel as a whole number of microseconds
   within [max_us].  So every frame the decoder accepts re-encodes to
   the bytes it came from. *)

let version = 6
let header_bytes = 8
let max_payload = 16 * 1024 * 1024

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_tag of int
  | Oversized of int
  | Malformed of string

let error_message = function
  | Bad_magic -> "bad magic (not a ptaintd stream)"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_tag t -> Printf.sprintf "unknown frame tag 0x%02x" t
  | Oversized n -> Printf.sprintf "oversized payload (%d bytes)" n
  | Malformed m -> "malformed payload: " ^ m

(* --- job description on the wire ------------------------------------

   The wire spec is the serializable subset of {!Ptaint_campaign.Job.t}:
   symbolic payload (source text), config fields that make sense
   remotely, a structural fault plan.  Local-only parts (pre-built
   [Image] payloads, [expect] closures, [on_step] hooks, host
   [fs_init]) never cross the socket. *)

type wire_payload = Wire_asm of string | Wire_c of string

type job_spec = {
  spec_tag : string;
  spec_payload : wire_payload;
  spec_policy : string option;  (** canonical policy label *)
  spec_argv : string list;
  spec_env : (string * string) list;
  spec_stdin : string;
  spec_sessions : string list list;
  spec_max_instructions : int option;
  spec_injections : Ptaint_fi.Fi.injection list;
  spec_timeout : float option;
  spec_trace : (int * int) option;  (** (trace id, span id) *)
  spec_idem : string option;  (** idempotency key *)
}

let job_spec ?policy ?(argv = []) ?(env = []) ?(stdin = "")
    ?(sessions = []) ?max_instructions ?(injections = []) ?timeout ?trace
    ?idem ~tag payload =
  { spec_tag = tag; spec_payload = payload; spec_policy = policy;
    spec_argv = argv; spec_env = env; spec_stdin = stdin;
    spec_sessions = sessions; spec_max_instructions = max_instructions;
    spec_injections = injections; spec_timeout = timeout; spec_trace = trace;
    spec_idem = idem }

(* --- frames --------------------------------------------------------- *)

type request =
  | Hello of { client : string }
  | Submit of job_spec
  | Stats_full  (** full telemetry snapshot, Prometheus text *)
  | Ping of string
  | Quit

type event =
  | Started of { id : int }
  | Finished of {
      id : int;
      tag : string;
      outcome : string;  (** rendered {!Ptaint_sim.Sim.pp_outcome} *)
      exit_code : int;
      instructions : int;
      syscalls : int;
      policy_label : string;
      cache_hit : bool;
      counters : (string * int) list;  (** {!Ptaint_campaign.Campaign.job_counters} *)
      stdout : string;
      trace : (int * int) option;
      alert_pc : int option;
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
  | Accepted of { id : int; tag : string }
  | Rejected of { tag : string; reason : string }
  | Job_event of event
  | Stats_full_ok of string  (** Prometheus text exposition 0.0.4 *)
  | Pong of string
  | Error_frame of string

(* --- outboxes ----------------------------------------------------------

   Every encoder writes straight into an outbox: a growable byte
   buffer whose bytes [o_off, o_len) are encoded but not yet written
   out.  A frame's header is reserved first and its length patched in
   once the payload is down, so a frame costs no intermediate payload
   string and no copy into a separate frame buffer.  The unwritten
   tail slides to the front only when the free space behind it is too
   short, and the buffer grows only when sliding is not enough. *)

type outbox = { mutable ob : Bytes.t; mutable o_off : int; mutable o_len : int }

let outbox_init = 4096

let make_outbox cap = { ob = Bytes.create cap; o_off = 0; o_len = 0 }
let outbox () = make_outbox outbox_init
let pending o = o.o_len - o.o_off

let reserve o n =
  if o.o_len + n > Bytes.length o.ob then begin
    let live = o.o_len - o.o_off in
    if live + n <= Bytes.length o.ob then Bytes.blit o.ob o.o_off o.ob 0 live
    else begin
      let grown = Bytes.create (max (live + n) (2 * Bytes.length o.ob)) in
      Bytes.blit o.ob o.o_off grown 0 live;
      o.ob <- grown
    end;
    o.o_off <- 0;
    o.o_len <- live
  end

(* --- primitive writers ---------------------------------------------- *)

let w_u8 o v =
  reserve o 1;
  Bytes.unsafe_set o.ob o.o_len (Char.unsafe_chr (v land 0xff));
  o.o_len <- o.o_len + 1

let w_u32 o v =
  reserve o 4;
  Bytes.set_int32_be o.ob o.o_len (Int32.of_int v);
  o.o_len <- o.o_len + 4

let w_i64 o v =
  reserve o 8;
  Bytes.set_int64_be o.ob o.o_len (Int64.of_int v);
  o.o_len <- o.o_len + 8

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_string o s =
  let n = String.length s in
  w_u32 o n;
  reserve o n;
  Bytes.blit_string s 0 o.ob o.o_len n;
  o.o_len <- o.o_len + n

let w_list b f xs =
  let n = List.length xs in
  if n > 0xffff then invalid_arg "Proto: list too long for the wire";
  w_u8 b (n lsr 8); w_u8 b n;
  List.iter (f b) xs

let w_opt f b = function
  | None -> w_u8 b 0
  | Some v -> w_u8 b 1; f b v

(* Seconds (timeouts) travel as the nearest whole number of
   microseconds in an i64 — exact enough for wall-clock budgets and
   immune to printf round-tripping.  Within [max_us] (2^50 us, about
   35 years) the float a decoder makes of them rounds back to the
   same count, so every seconds field has one encoding; a longer
   budget saturates there, which no run can tell apart. *)
let max_us = 1 lsl 50

let w_seconds b s =
  if Float.is_nan s then invalid_arg "Proto: seconds field is NaN";
  let lim = float_of_int max_us in
  w_i64 b (int_of_float (Float.min lim (Float.max (-.lim) (Float.round (s *. 1e6)))))

let w_ids b (tid, span) = w_i64 b tid; w_i64 b span
let w_pair b (k, v) = w_string b k; w_string b v
let w_counter b (k, v) = w_string b k; w_i64 b v

let w_fault b =
  let open Ptaint_fi.Fi in
  function
  | Flip_data { addr; bit } -> w_u8 b 0; w_i64 b addr; w_u8 b bit
  | Flip_reg { slot; bit } -> w_u8 b 1; w_i64 b slot; w_u8 b bit
  | Taint_loss { addr; len } -> w_u8 b 2; w_i64 b addr; w_i64 b len
  | Spurious_taint { addr; len } -> w_u8 b 3; w_i64 b addr; w_i64 b len
  | Reg_taint_loss { slot } -> w_u8 b 4; w_i64 b slot
  | Reg_spurious_taint { slot } -> w_u8 b 5; w_i64 b slot
  | Taint_wipe -> w_u8 b 6
  | Stuck_clean { addr; len } -> w_u8 b 7; w_i64 b addr; w_i64 b len

let w_injection b { Ptaint_fi.Fi.at; fault } =
  w_i64 b at;
  w_fault b fault

(* --- primitive readers ----------------------------------------------

   Readers work over (string, mutable position); any violation raises
   [Truncated]/[Garbled], mapped to [Malformed] at the frame boundary
   so callers only ever see typed errors. *)

exception Garbled of string

type cursor = { buf : string; mutable pos : int; stop : int }

let need c n what =
  if c.stop - c.pos < n then
    raise (Garbled (Printf.sprintf "truncated %s (%d bytes left, need %d)" what (c.stop - c.pos) n))

let r_u8 c what =
  need c 1 what;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u32 c what =
  need c 4 what;
  let v =
    (Char.code c.buf.[c.pos] lsl 24)
    lor (Char.code c.buf.[c.pos + 1] lsl 16)
    lor (Char.code c.buf.[c.pos + 2] lsl 8)
    lor Char.code c.buf.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

(* An i64 whose top two bits differ has no OCaml int, so it has no
   value to decode to. *)
let r_i64 c what =
  need c 8 what;
  let v = String.get_int64_be c.buf c.pos in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then raise (Garbled (what ^ ": i64 out of int range"));
  c.pos <- c.pos + 8;
  n

let r_bool c what =
  match r_u8 c what with
  | 0 -> false
  | 1 -> true
  | b -> raise (Garbled (Printf.sprintf "%s: byte %d is not 0 or 1" what b))

let r_string c what =
  let n = r_u32 c what in
  if n > max_payload then raise (Garbled (Printf.sprintf "%s: absurd string length %d" what n));
  need c n what;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let r_list c f what =
  let hi = r_u8 c what in
  let lo = r_u8 c what in
  (* List.init applies [f] left to right only from OCaml 5; spell the
     order out so the cursor advances element by element regardless *)
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f c :: acc) in
  go ((hi lsl 8) lor lo) []

let r_opt c f what = if r_bool c what then Some (f c what) else None

let r_seconds c what =
  let us = r_i64 c what in
  if us > max_us || us < -max_us then raise (Garbled (what ^ ": seconds out of range"));
  float_of_int us /. 1e6

let r_ids c what =
  let tid = r_i64 c what in
  (tid, r_i64 c "span id")

let r_pair c = let k = r_string c "pair key" in (k, r_string c "pair value")
let r_counter c = let k = r_string c "counter name" in (k, r_i64 c "counter value")

let r_fault c =
  let open Ptaint_fi.Fi in
  match r_u8 c "fault tag" with
  | 0 -> let addr = r_i64 c "addr" in Flip_data { addr; bit = r_u8 c "bit" }
  | 1 -> let slot = r_i64 c "slot" in Flip_reg { slot; bit = r_u8 c "bit" }
  | 2 -> let addr = r_i64 c "addr" in Taint_loss { addr; len = r_i64 c "len" }
  | 3 -> let addr = r_i64 c "addr" in Spurious_taint { addr; len = r_i64 c "len" }
  | 4 -> Reg_taint_loss { slot = r_i64 c "slot" }
  | 5 -> Reg_spurious_taint { slot = r_i64 c "slot" }
  | 6 -> Taint_wipe
  | 7 -> let addr = r_i64 c "addr" in Stuck_clean { addr; len = r_i64 c "len" }
  | t -> raise (Garbled (Printf.sprintf "unknown fault tag %d" t))

let r_injection c =
  let at = r_i64 c "injection icount" in
  { Ptaint_fi.Fi.at; fault = r_fault c }

(* --- frame tags ------------------------------------------------------ *)

let tag_hello = 0x01
let tag_submit = 0x02
let tag_ping = 0x04
let tag_quit = 0x05
let tag_stats_full = 0x06

let tag_hello_ok = 0x81
let tag_accepted = 0x82
let tag_rejected = 0x83
let tag_job_event = 0x84
let tag_pong = 0x86
let tag_error = 0x87
let tag_stats_full_ok = 0x88

let ev_started = 1
let ev_finished = 2
let ev_failed = 3

(* --- frame assembly -------------------------------------------------- *)

(* Append one whole frame: the header with a placeholder length, the
   payload [write] encodes in place, then the real length.  The header
   is found again by its distance from [o_off], which sliding and
   growing both preserve.  A payload that fails to encode (a list too
   long for its u16 count, a payload over [max_payload]) is cut off
   again, so the outbox only ever holds whole frames. *)
let add_frame o tag write =
  let rel = o.o_len - o.o_off in
  w_u8 o (Char.code 'P');
  w_u8 o (Char.code 'D');
  w_u8 o version;
  w_u8 o tag;
  w_u32 o 0;
  let cut () = o.o_len <- o.o_off + rel in
  (match write o with () -> () | exception e -> cut (); raise e);
  let h = o.o_off + rel in
  let n = o.o_len - h - header_bytes in
  if n > max_payload then begin
    cut ();
    invalid_arg "Proto: payload exceeds max_payload"
  end;
  Bytes.set_int32_be o.ob (h + 4) (Int32.of_int n)

let w_job_spec b s =
  (match s.spec_payload with
   | Wire_asm src -> w_u8 b 0; w_string b src
   | Wire_c src -> w_u8 b 1; w_string b src);
  w_string b s.spec_tag;
  w_opt w_string b s.spec_policy;
  w_list b w_string s.spec_argv;
  w_list b w_pair s.spec_env;
  w_string b s.spec_stdin;
  w_list b (fun b session -> w_list b w_string session) s.spec_sessions;
  w_opt w_i64 b s.spec_max_instructions;
  w_list b w_injection s.spec_injections;
  w_opt w_seconds b s.spec_timeout;
  w_opt w_ids b s.spec_trace;
  w_opt w_string b s.spec_idem

let r_job_spec c =
  let payload =
    match r_u8 c "payload kind" with
    | 0 -> Wire_asm (r_string c "asm source")
    | 1 -> Wire_c (r_string c "c source")
    | k -> raise (Garbled (Printf.sprintf "unknown payload kind %d" k))
  in
  let spec_tag = r_string c "job tag" in
  let spec_policy = r_opt c r_string "policy label" in
  let spec_argv = r_list c (fun c -> r_string c "argv entry") "argv" in
  let spec_env = r_list c r_pair "env" in
  let spec_stdin = r_string c "stdin" in
  let spec_sessions =
    r_list c (fun c -> r_list c (fun c -> r_string c "session line") "session") "sessions"
  in
  let spec_max_instructions = r_opt c r_i64 "max instructions" in
  let spec_injections = r_list c r_injection "injections" in
  let spec_timeout = r_opt c r_seconds "timeout" in
  let spec_trace = r_opt c r_ids "trace id" in
  let spec_idem = r_opt c r_string "idempotency key" in
  { spec_tag; spec_payload = payload; spec_policy; spec_argv; spec_env;
    spec_stdin; spec_sessions; spec_max_instructions; spec_injections;
    spec_timeout; spec_trace; spec_idem }

let add_request o = function
  | Hello { client } -> add_frame o tag_hello (fun o -> w_string o client)
  | Submit spec -> add_frame o tag_submit (fun o -> w_job_spec o spec)
  | Stats_full -> add_frame o tag_stats_full ignore
  | Ping payload -> add_frame o tag_ping (fun o -> w_string o payload)
  | Quit -> add_frame o tag_quit ignore

let w_event b = function
  | Started { id } -> w_u8 b ev_started; w_i64 b id
  | Finished f ->
    w_u8 b ev_finished;
    w_i64 b f.id;
    w_string b f.tag;
    w_string b f.outcome;
    w_i64 b f.exit_code;
    w_i64 b f.instructions;
    w_i64 b f.syscalls;
    w_string b f.policy_label;
    w_bool b f.cache_hit;
    w_list b w_counter f.counters;
    w_string b f.stdout;
    w_opt w_ids b f.trace;
    w_opt w_i64 b f.alert_pc
  | Job_failed f ->
    w_u8 b ev_failed;
    w_i64 b f.id;
    w_string b f.tag;
    w_string b f.kind;
    w_string b f.message;
    w_string b f.policy_label;
    w_list b w_counter f.counters;
    w_opt w_ids b f.trace

let r_event c =
  match r_u8 c "event tag" with
  | 1 -> Started { id = r_i64 c "job id" }
  | 2 ->
    let id = r_i64 c "job id" in
    let tag = r_string c "job tag" in
    let outcome = r_string c "outcome" in
    let exit_code = r_i64 c "exit code" in
    let instructions = r_i64 c "instructions" in
    let syscalls = r_i64 c "syscalls" in
    let policy_label = r_string c "policy label" in
    let cache_hit = r_bool c "cache hit" in
    let counters = r_list c r_counter "counters" in
    let stdout = r_string c "stdout" in
    let trace = r_opt c r_ids "trace id" in
    let alert_pc = r_opt c r_i64 "alert pc" in
    Finished { id; tag; outcome; exit_code; instructions; syscalls;
               policy_label; cache_hit; counters; stdout; trace; alert_pc }
  | 3 ->
    let id = r_i64 c "job id" in
    let tag = r_string c "job tag" in
    let kind = r_string c "failure kind" in
    let message = r_string c "failure message" in
    let policy_label = r_string c "policy label" in
    let counters = r_list c r_counter "counters" in
    let trace = r_opt c r_ids "trace id" in
    Job_failed { id; tag; kind; message; policy_label; counters; trace }
  | t -> raise (Garbled (Printf.sprintf "unknown event tag %d" t))

let add_response o = function
  | Hello_ok { banner } -> add_frame o tag_hello_ok (fun o -> w_string o banner)
  | Accepted { id; tag } -> add_frame o tag_accepted (fun o -> w_i64 o id; w_string o tag)
  | Rejected { tag; reason } ->
    add_frame o tag_rejected (fun o -> w_string o tag; w_string o reason)
  | Job_event e -> add_frame o tag_job_event (fun o -> w_event o e)
  | Stats_full_ok text -> add_frame o tag_stats_full_ok (fun o -> w_string o text)
  | Pong payload -> add_frame o tag_pong (fun o -> w_string o payload)
  | Error_frame msg -> add_frame o tag_error (fun o -> w_string o msg)

(* The one-shot string form, for tests and tools: the same encoder
   into a private outbox. *)
let encoded add v =
  let o = make_outbox 256 in
  add o v;
  Bytes.sub_string o.ob o.o_off (pending o)

let encode_request req = encoded add_request req
let encode_response resp = encoded add_response resp

(* --- frame disassembly ----------------------------------------------- *)

(* The header of the frame starting at [off], with [len] bytes
   buffered from there.  [Ok None]: the header is not all in yet.
   [Ok (Some (tag, n))]: a valid header announcing an [n]-byte
   payload.  [Error _]: the stream is unsalvageable (framing is
   length-prefixed, so after any header-level error resynchronisation
   is impossible) — and an oversized announcement is caught here, from
   the 8 header bytes alone, before any of its payload is buffered.
   The tag is checked only once the whole frame is in. *)
let frame_header buf off len =
  if len = 0 then Ok None
  else if buf.[off] <> 'P' then Error Bad_magic
  else if len >= 2 && buf.[off + 1] <> 'D' then Error Bad_magic
  else if len < header_bytes then Ok None
  else
    let ver = Char.code buf.[off + 2] in
    if ver <> version then Error (Bad_version ver)
    else
      let n =
        (Char.code buf.[off + 4] lsl 24) lor (Char.code buf.[off + 5] lsl 16)
        lor (Char.code buf.[off + 6] lsl 8) lor Char.code buf.[off + 7]
      in
      if n > max_payload then Error (Oversized n)
      else Ok (Some (Char.code buf.[off + 3], n))

(* Parse the payload in [buf.[pos, stop)] with [f], insisting every
   byte is consumed: a frame with trailing garbage is a framing bug or
   an attack, not a value. *)
let parse_payload f buf pos stop =
  let c = { buf; pos; stop } in
  match f c with
  | v ->
    if c.pos <> c.stop then
      Error (Malformed (Printf.sprintf "%d trailing bytes after payload" (c.stop - c.pos)))
    else Ok v
  | exception Garbled m -> Error (Malformed m)

let request_of_frame tag buf pos stop =
  let parse f = parse_payload f buf pos stop in
  if tag = tag_hello then parse (fun c -> Hello { client = r_string c "client name" })
  else if tag = tag_submit then parse (fun c -> Submit (r_job_spec c))
  else if tag = tag_stats_full then parse (fun _ -> Stats_full)
  else if tag = tag_ping then parse (fun c -> Ping (r_string c "ping payload"))
  else if tag = tag_quit then parse (fun _ -> Quit)
  else Error (Bad_tag tag)

let response_of_frame tag buf pos stop =
  let parse f = parse_payload f buf pos stop in
  if tag = tag_hello_ok then parse (fun c -> Hello_ok { banner = r_string c "banner" })
  else if tag = tag_accepted then
    parse (fun c ->
        let id = r_i64 c "job id" in
        Accepted { id; tag = r_string c "job tag" })
  else if tag = tag_rejected then
    parse (fun c ->
        let tag = r_string c "job tag" in
        Rejected { tag; reason = r_string c "reason" })
  else if tag = tag_job_event then parse (fun c -> Job_event (r_event c))
  else if tag = tag_stats_full_ok then
    parse (fun c -> Stats_full_ok (r_string c "stats text"))
  else if tag = tag_pong then parse (fun c -> Pong (r_string c "pong payload"))
  else if tag = tag_error then parse (fun c -> Error_frame (r_string c "error message"))
  else Error (Bad_tag tag)

(* Decode the frame at [off] in place; [Ok (Some (v, consumed))] once
   the whole frame is buffered. *)
let decode_at of_frame buf off len =
  match frame_header buf off len with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some (tag, n)) ->
    if len < header_bytes + n then Ok None
    else
      let pos = off + header_bytes in
      match of_frame tag buf pos (pos + n) with
      | Error e -> Error e
      | Ok v -> Ok (Some (v, header_bytes + n))

let decode_request buf = decode_at request_of_frame buf 0 (String.length buf)
let decode_response buf = decode_at response_of_frame buf 0 (String.length buf)

(* --- frame streams ---------------------------------------------------

   Every endpoint reads through a reader: one reusable byte buffer with
   a read cursor.  [rb.[r_off, r_len)] holds bytes read but not yet
   decoded.  A whole frame is decoded where it lies (the payload
   readers copy out only the strings of the value), and the cursor
   jumps past it; when it catches up with the fill mark both go back
   to 0, so a peer whose frames arrive whole never causes a copy.

   [fill] makes room before each read.  Room means space for the rest
   of the pending frame: its whole size once a valid header is in,
   otherwise the header.  A frame larger than the buffer grows it (at
   least doubling); once the buffered bytes fit [reader_init] again a
   grown buffer shrinks back, so a burst of big frames does not pin
   memory.  Otherwise the partial frame slides to the front only when
   the tail cannot take the rest of it.  A bad pending header stops
   the reading there, so an oversized announcement never sizes the
   buffer, and the first error sticks: framing cannot resynchronise. *)

type 'a reader = {
  mutable rb : Bytes.t;
  mutable r_off : int;
  mutable r_len : int;
  mutable r_err : error option;
  of_frame : int -> string -> int -> int -> ('a, error) result;
}

let reader_init = 16384

let reader of_frame =
  { rb = Bytes.create reader_init; r_off = 0; r_len = 0; r_err = None; of_frame }

let request_reader () = reader request_of_frame
let response_reader () = reader response_of_frame
let buffered r = r.r_len - r.r_off
let capacity r = Bytes.length r.rb

(* The decoders read [rb] through a string view.  Sound because the
   view never outlives the call that takes it, and nothing writes
   [rb] while a decoder runs; every string a decoder returns is a
   fresh copy. *)
let view r = Bytes.unsafe_to_string r.rb

let next r =
  match r.r_err with
  | Some e -> Error e
  | None -> (
    match decode_at r.of_frame (view r) r.r_off (buffered r) with
    | Ok None -> Ok None
    | Ok (Some (v, consumed)) ->
      r.r_off <- r.r_off + consumed;
      if r.r_off = r.r_len then begin
        r.r_off <- 0;
        r.r_len <- 0
      end;
      Ok (Some v)
    | Error e ->
      r.r_err <- Some e;
      Error e)

let make_room r ~avail ~want =
  let size = Bytes.length r.rb in
  let move_to fresh =
    Bytes.blit r.rb r.r_off fresh 0 avail;
    r.rb <- fresh;
    r.r_off <- 0;
    r.r_len <- avail
  in
  if want > size then move_to (Bytes.create (max want (2 * size)))
  else if size > reader_init && want <= reader_init then move_to (Bytes.create reader_init)
  else if r.r_len + (want - avail) > size then move_to r.rb

let fill r read =
  let avail = buffered r in
  match r.r_err with
  | Some _ -> 0
  | None -> (
    match frame_header (view r) r.r_off avail with
    | Error e ->
      r.r_err <- Some e;
      0
    | header ->
      let need =
        match header with Ok (Some (_, n)) -> header_bytes + n | _ -> header_bytes
      in
      make_room r ~avail ~want:(avail + max 1 (need - avail));
      let n = read r.rb r.r_len (Bytes.length r.rb - r.r_len) in
      r.r_len <- r.r_len + n;
      n)

(* Outbox write-out: straight from the outbox bytes, no copy.  An
   emptied outbox rewinds to 0, and one a burst grew past
   [outbox_shrink] is swapped for a fresh small one. *)
let outbox_shrink = 1 lsl 16

let flush o write =
  let n = if pending o > 0 then write o.ob o.o_off (pending o) else 0 in
  o.o_off <- o.o_off + n;
  if o.o_off = o.o_len then begin
    o.o_off <- 0;
    o.o_len <- 0;
    if Bytes.length o.ob > outbox_shrink then o.ob <- Bytes.create outbox_init
  end;
  n

let flush_all o write =
  while pending o > 0 do
    ignore (flush o write)
  done

let rec read_fd fd b off len =
  try Unix.read fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_fd fd b off len

let rec write_fd fd b off len =
  try Unix.write fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_fd fd b off len

(* --- job spec <-> unified Job.t -------------------------------------- *)

let job_of_spec s =
  match
    match s.spec_policy with
    | None -> Ok None
    | Some label -> (
      match Ptaint_sim.Sim.policy_of_label label with
      | Ok p -> Ok (Some p)
      | Error m -> Error m)
  with
  | Error m -> Error m
  | Ok policy ->
    let open Ptaint_sim.Sim.Config in
    let config =
      default
      |> (match policy with None -> Fun.id | Some p -> with_policy p)
      |> with_argv s.spec_argv
      |> with_env s.spec_env
      |> with_stdin s.spec_stdin
      |> with_sessions s.spec_sessions
      |> (match s.spec_max_instructions with
          | None -> Fun.id
          | Some n -> with_max_instructions n)
    in
    let payload =
      match s.spec_payload with
      | Wire_asm src -> Ptaint_campaign.Job.Asm_source src
      | Wire_c src -> Ptaint_campaign.Job.C_source src
    in
    (* No [policy_label] override: let the campaign engine derive the
       canonical label from the policy itself, exactly as the local
       batch runner does — the labels bucketing metrics must agree
       byte-for-byte between the two paths. *)
    Ok
      (Ptaint_campaign.Job.make ~tag:s.spec_tag ~config
         ~injections:s.spec_injections ?timeout:s.spec_timeout
         ?trace:s.spec_trace payload)

let spec_of_job ?policy (j : Ptaint_campaign.Job.t) =
  let payload =
    match j.Ptaint_campaign.Job.payload with
    | Ptaint_campaign.Job.Asm_source src -> Ok (Wire_asm src)
    | Ptaint_campaign.Job.C_source src -> Ok (Wire_c src)
    | Ptaint_campaign.Job.Image _ ->
      Error "pre-assembled Image payloads cannot travel on the wire"
  in
  match payload with
  | Error _ as e -> e
  | Ok payload ->
    let c = j.Ptaint_campaign.Job.config in
    Ok
      { spec_tag = j.Ptaint_campaign.Job.tag;
        spec_payload = payload;
        spec_policy =
          (match j.Ptaint_campaign.Job.policy_label, policy with
           | Some l, _ -> Some l
           | None, p -> p);
        spec_argv = c.Ptaint_sim.Sim.argv;
        spec_env = c.Ptaint_sim.Sim.env;
        spec_stdin = c.Ptaint_sim.Sim.stdin;
        spec_sessions = c.Ptaint_sim.Sim.sessions;
        spec_max_instructions = Some c.Ptaint_sim.Sim.max_instructions;
        spec_injections = j.Ptaint_campaign.Job.injections;
        spec_timeout = j.Ptaint_campaign.Job.timeout;
        spec_trace = j.Ptaint_campaign.Job.trace;
        spec_idem = None }
