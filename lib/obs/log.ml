(* Structured, leveled logging with per-domain buffering.

   A logger renders records — timestamp, level, source, message, typed
   key/value fields — to one of two line formats (logfmt or JSON
   lines) and hands the rendered bytes to a sink.  The fast path is
   contention-free: each domain appends to its own buffer (guarded by
   a mutex nobody else touches during normal operation), and only the
   actual sink write takes the shared lock.  Buffers drain when they
   grow past [buffer_bytes], when [flush_every] seconds have passed
   since that domain last drained, or on [flush]/[close] — which walk
   every registered domain buffer so no line is stranded.

   Disabled records cost one level comparison and nothing else: the
   [log] entry point checks [enabled] before rendering, and the
   convenience wrappers ([debug] etc.) inline that check, so a
   compiled-in-but-filtered call site is effectively free (gated in CI
   by the micro/log-off-10k bench row). *)

type level = Debug | Info | Warn | Error

let level_index = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | _ -> Error (Printf.sprintf "unknown log level %S" s)

type value = S of string | I of int | F of float | B of bool

type field = string * value

let str k v = (k, S v)
let int k v = (k, I v)
let float k v = (k, F v)
let bool k v = (k, B v)

type format = Logfmt | Json

let format_of_string s =
  match String.lowercase_ascii s with
  | "logfmt" -> Ok Logfmt
  | "json" -> Ok Json
  | _ -> Error (Printf.sprintf "unknown log format %S (expected logfmt or json)" s)

(* {2 Rendering} *)

let ts_string ts =
  let tm = Unix.gmtime ts in
  let ms =
    let f = ts -. Float.of_int (int_of_float ts) in
    Stdlib.min 999 (int_of_float (f *. 1000.))
  in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ"
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec ms

let float_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* logfmt keys must not contain the characters that delimit the
   format itself. *)
let logfmt_key k =
  String.map (fun c -> if c = ' ' || c = '=' || c = '"' || Char.code c < 0x20 then '_' else c) k

let logfmt_needs_quotes s =
  s = ""
  || String.exists (fun c -> c = ' ' || c = '"' || c = '=' || Char.code c < 0x20) s

let logfmt_value b s =
  if not (logfmt_needs_quotes s) then Buffer.add_string b s
  else begin
    Buffer.add_char b '"';
    Json.add_escaped b s;
    Buffer.add_char b '"'
  end

let json_string b s =
  Buffer.add_char b '"';
  Json.add_escaped b s;
  Buffer.add_char b '"'

let value_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> float_string f
  | B b -> if b then "true" else "false"

let render format ~ts ~level ~src ~msg fields =
  let b = Buffer.create 128 in
  (match format with
   | Logfmt ->
     Buffer.add_string b "ts=";
     Buffer.add_string b (ts_string ts);
     Buffer.add_string b " level=";
     Buffer.add_string b (level_name level);
     Buffer.add_string b " src=";
     logfmt_value b src;
     Buffer.add_string b " msg=";
     logfmt_value b msg;
     List.iter
       (fun (k, v) ->
         Buffer.add_char b ' ';
         Buffer.add_string b (logfmt_key k);
         Buffer.add_char b '=';
         match v with
         | S s -> logfmt_value b s
         | v -> Buffer.add_string b (value_string v))
       fields
   | Json ->
     Buffer.add_string b "{\"ts\":";
     json_string b (ts_string ts);
     Buffer.add_string b ",\"level\":";
     json_string b (level_name level);
     Buffer.add_string b ",\"src\":";
     json_string b src;
     Buffer.add_string b ",\"msg\":";
     json_string b msg;
     List.iter
       (fun (k, v) ->
         Buffer.add_char b ',';
         json_string b k;
         Buffer.add_char b ':';
         match v with
         | S s -> json_string b s
         | v -> Buffer.add_string b (value_string v))
       fields;
     Buffer.add_char b '}');
  Buffer.contents b

(* {2 Sinks} *)

type sink = {
  write : string -> unit;
  flush_sink : unit -> unit;
  close_sink : unit -> unit;
}

let fn_sink f = { write = f; flush_sink = (fun () -> ()); close_sink = (fun () -> ()) }

let buffer_sink b =
  { write = Buffer.add_string b; flush_sink = (fun () -> ()); close_sink = (fun () -> ()) }

let channel_sink oc =
  { write = (fun s -> output_string oc s);
    flush_sink = (fun () -> flush oc);
    close_sink = (fun () -> flush oc) }

(* File sink with size-based rotation: when the next chunk would push
   the file past [max_bytes], the current file is renamed to
   [path ^ ".1"] (replacing any previous rotation) and a fresh file is
   started.  A single chunk larger than the cap is written whole to an
   empty file rather than rotating forever. *)
let file_sink ?max_bytes path =
  let open_log trunc =
    open_out_gen
      [ Open_wronly; Open_creat; (if trunc then Open_trunc else Open_append) ]
      0o644 path
  in
  let oc = ref (open_log false) in
  let bytes = ref (out_channel_length !oc) in
  let write s =
    (match max_bytes with
     | Some cap when !bytes > 0 && !bytes + String.length s > cap ->
       close_out !oc;
       (try Sys.remove (path ^ ".1") with Sys_error _ -> ());
       (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
       oc := open_log true;
       bytes := 0
     | _ -> ());
    output_string !oc s;
    bytes := !bytes + String.length s
  in
  { write;
    flush_sink = (fun () -> try flush !oc with Sys_error _ -> ());
    close_sink = (fun () -> try close_out !oc with Sys_error _ -> ()) }

(* {2 Logger} *)

type dbuf = { dmu : Mutex.t; db : Buffer.t; mutable last_flush : float }

type t = {
  mutable min_level : int;
  mutable floor : int;
  (* min over [min_level] and every per-source override: a record
     strictly below the floor is disabled for every source, decided by
     one integer comparison with no hashtable lookup — the whole cost
     of a compiled-in-but-disabled call site. *)
  src_levels : (string, int) Hashtbl.t;  (* configure before sharing *)
  format : format;
  clock : unit -> float;
  buffer_bytes : int;
  flush_every : float;
  sink : sink;
  sink_mu : Mutex.t;
  bufs : dbuf list ref;  (* every domain buffer ever registered *)
  bufs_mu : Mutex.t;
  key : dbuf Domain.DLS.key;
  mutable closed : bool;
}

let create ?(level = Info) ?(format = Logfmt) ?(clock = Unix.gettimeofday)
    ?(buffer_bytes = 0) ?(flush_every = 1.0) sink =
  let bufs = ref [] in
  let bufs_mu = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let d = { dmu = Mutex.create (); db = Buffer.create 256; last_flush = 0. } in
        Mutex.lock bufs_mu;
        bufs := d :: !bufs;
        Mutex.unlock bufs_mu;
        d)
  in
  { min_level = level_index level;
    floor = level_index level;
    src_levels = Hashtbl.create 8;
    format;
    clock;
    buffer_bytes;
    flush_every;
    sink;
    sink_mu = Mutex.create ();
    bufs;
    bufs_mu;
    key;
    closed = false }

let refloor t =
  t.floor <- Hashtbl.fold (fun _ li acc -> Stdlib.min li acc) t.src_levels t.min_level

let set_level t level =
  t.min_level <- level_index level;
  refloor t

let set_source_level t src level =
  Hashtbl.replace t.src_levels src (level_index level);
  refloor t

let enabled t ~src level =
  let li = level_index level in
  li >= t.floor
  && (match Hashtbl.find_opt t.src_levels src with
      | Some min -> li >= min
      | None -> li >= t.min_level)

let drain_locked t d =
  (* caller holds d.dmu *)
  if Buffer.length d.db > 0 then begin
    let chunk = Buffer.contents d.db in
    Buffer.clear d.db;
    Mutex.lock t.sink_mu;
    (try
       t.sink.write chunk;
       t.sink.flush_sink ()
     with e ->
       Mutex.unlock t.sink_mu;
       raise e);
    Mutex.unlock t.sink_mu
  end

let log t level ~src msg fields =
  if (not t.closed) && enabled t ~src level then begin
    let now = t.clock () in
    let line = render t.format ~ts:now ~level ~src ~msg fields in
    let d = Domain.DLS.get t.key in
    Mutex.lock d.dmu;
    Buffer.add_string d.db line;
    Buffer.add_char d.db '\n';
    if
      Buffer.length d.db >= t.buffer_bytes
      || now -. d.last_flush >= t.flush_every
    then begin
      d.last_flush <- now;
      drain_locked t d
    end;
    Mutex.unlock d.dmu
  end

let debug t ~src msg fields = if enabled t ~src Debug then log t Debug ~src msg fields
let info t ~src msg fields = if enabled t ~src Info then log t Info ~src msg fields
let warn t ~src msg fields = if enabled t ~src Warn then log t Warn ~src msg fields
let error t ~src msg fields = if enabled t ~src Error then log t Error ~src msg fields

let flush t =
  Mutex.lock t.bufs_mu;
  let bufs = !(t.bufs) in
  Mutex.unlock t.bufs_mu;
  List.iter
    (fun d ->
      Mutex.lock d.dmu;
      (try drain_locked t d with _ -> ());
      Mutex.unlock d.dmu)
    bufs;
  Mutex.lock t.sink_mu;
  (try t.sink.flush_sink () with _ -> ());
  Mutex.unlock t.sink_mu

let close t =
  if not t.closed then begin
    flush t;
    t.closed <- true;
    Mutex.lock t.sink_mu;
    (try t.sink.close_sink () with _ -> ());
    Mutex.unlock t.sink_mu
  end

(* Trace-correlation helper: ids are rendered as fixed-width hex
   everywhere (client log, daemon log, JSONL sinks, Chrome spans) so
   one grep follows a job across processes. *)
let hex_id id = Printf.sprintf "%016x" id
