(* Structured, leveled logging.

   A logger renders records — timestamp, level, source, message, typed
   key/value fields — to one of two line formats (logfmt or JSON
   lines) and hands each rendered line to a sink at once.

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

type t = {
  level : int;
  format : format;
  sink : sink;
  sink_mu : Mutex.t;
  mutable closed : bool;
}

let create ?(level = Info) ?(format = Logfmt) sink =
  { level = level_index level; format; sink; sink_mu = Mutex.create (); closed = false }

let enabled t level = level_index level >= t.level

(* One record, one sink write and flush, under the sink lock: domains
   logging at once interleave whole lines. *)
let log t level ~src msg fields =
  if (not t.closed) && enabled t level then begin
    let line = render t.format ~ts:(Unix.gettimeofday ()) ~level ~src ~msg fields ^ "\n" in
    Mutex.protect t.sink_mu (fun () ->
        t.sink.write line;
        t.sink.flush_sink ())
  end

let debug t ~src msg fields = if enabled t Debug then log t Debug ~src msg fields
let info t ~src msg fields = if enabled t Info then log t Info ~src msg fields
let warn t ~src msg fields = if enabled t Warn then log t Warn ~src msg fields
let error t ~src msg fields = if enabled t Error then log t Error ~src msg fields

let flush t =
  Mutex.lock t.sink_mu;
  (try t.sink.flush_sink () with _ -> ());
  Mutex.unlock t.sink_mu

let close t =
  if not t.closed then begin
    t.closed <- true;
    Mutex.lock t.sink_mu;
    (try t.sink.flush_sink () with _ -> ());
    (try t.sink.close_sink () with _ -> ());
    Mutex.unlock t.sink_mu
  end

(* Trace-correlation helper: ids are rendered as fixed-width hex
   everywhere (client log, daemon log, JSONL sinks, Chrome spans) so
   one grep follows a job across processes. *)
let hex_id id = Printf.sprintf "%016x" id
