(* Blocking ptaintd client.

   One connection, one thread: requests are written whole, responses
   are read frame-by-frame.  Two subtleties:

   - Interleaving: the server streams [Job_event] frames for earlier
     submissions while we wait for the direct reply to a later
     request, so the client stashes events encountered mid-RPC and
     hands them out from {!next_event} in arrival order.

   - Retries: with [retries > 0], {!connect} rides out a daemon that
     is still binding its socket, and {!submit} survives a connection
     dropped between submissions — jittered capped backoff, fresh
     handshake, resend.  Resubmission is only exactly-once when the
     spec carries an idempotency key ([spec_idem]); the server then
     attaches the retry to the live admission or replays the recorded
     result instead of running the job again. *)

module Rng = Ptaint_fi.Fi.Rng

exception Protocol_error of string

(* Matched on retry: an EOF mid-frame is a connection loss, not a
   framing violation, so it is the one Protocol_error worth a
   reconnect.  Kept as a single constant so the raise site and the
   retry match cannot drift apart. *)
let eof_message = "server closed the connection"

type t = {
  mutable fd : Unix.file_descr;
  mutable inbox : Proto.response Proto.reader;
  mutable out : Proto.outbox;
  events : Proto.event Queue.t;
  mutable server_banner : string;
  path : string;
  client_name : string;
  retries : int;  (* reconnect attempts beyond the first try *)
  backoff : float;  (* base delay, seconds; doubled per attempt *)
  rng : Rng.t;
}

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let send t req =
  Proto.add_request t.out req;
  Proto.flush_all t.out (Proto.write_fd t.fd)

let rec read_frame t =
  match Proto.next t.inbox with
  | Error e -> fail "bad frame from server: %s" (Proto.error_message e)
  | Ok (Some resp) -> resp
  | Ok None ->
    if Proto.fill t.inbox (Proto.read_fd t.fd) = 0 then
      raise (Protocol_error eof_message);
    read_frame t

(* Read until a non-event frame arrives, stashing events on the way.
   [Error_frame] is terminal by protocol contract. *)
let rec read_reply t =
  match read_frame t with
  | Proto.Job_event e ->
    Queue.push e t.events;
    read_reply t
  | Proto.Error_frame m -> fail "server error: %s" m
  | resp -> resp

(* Capped exponential backoff with uniform jitter in [cap/2, cap]:
   retrying clients of one dead daemon must not reconnect in
   lockstep. *)
let backoff_sleep ~backoff ~rng attempt =
  let cap = min 1.0 (backoff *. (2. ** float_of_int (min 10 attempt))) in
  let jitter = float_of_int (Rng.next rng land 0xffff) /. 65535. in
  let delay = (cap /. 2.) +. (cap /. 2. *. jitter) in
  try ignore (Unix.select [] [] [] delay) with Unix.Unix_error _ -> ()

let transient_unix_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EPIPE -> true
  | _ -> false

let dial path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let handshake t =
  send t (Proto.Hello { client = t.client_name });
  match read_reply t with
  | Proto.Hello_ok { server_version; banner } ->
    if server_version <> Proto.version then
      fail "server speaks protocol v%d, client v%d" server_version Proto.version;
    t.server_banner <- banner
  | _ -> fail "expected Hello_ok"

(* Drop the dead fd and dial + handshake again, on fresh streams: a
   half-read reply or half-written request of the dead connection must
   not leak into the new one.  Stashed events survive — they were
   delivered before the connection died and the caller has not
   consumed them yet. *)
let reconnect t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- dial t.path;
  t.inbox <- Proto.response_reader ();
  t.out <- Proto.outbox ();
  handshake t

let connect ?(client = "ptaint") ?(retries = 0) ?(backoff = 0.05) path =
  let rng =
    Rng.create
      (int_of_float (Unix.gettimeofday () *. 1e6) lxor (Unix.getpid () * 0x9e3779b9))
  in
  let rec dial_retry attempt =
    match dial path with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _)
      when transient_unix_error err && attempt < retries ->
      backoff_sleep ~backoff ~rng attempt;
      dial_retry (attempt + 1)
  in
  let fd = dial_retry 0 in
  let t =
    { fd; inbox = Proto.response_reader (); out = Proto.outbox ();
      events = Queue.create ();
      server_banner = ""; path; client_name = client; retries; backoff; rng }
  in
  handshake t;
  t

let banner t = t.server_banner

let submit t spec =
  let attempt () =
    send t (Proto.Submit spec);
    match read_reply t with
    | Proto.Accepted { id; _ } -> Ok id
    | Proto.Rejected { reason; _ } -> Error reason
    | _ -> fail "expected Accepted/Rejected"
  in
  let rec go n =
    match attempt () with
    | r -> r
    | exception Unix.Unix_error (err, _, _)
      when transient_unix_error err && n < t.retries ->
      backoff_sleep ~backoff:t.backoff ~rng:t.rng n;
      reconnect t;
      go (n + 1)
    | exception Protocol_error m when m = eof_message && n < t.retries ->
      backoff_sleep ~backoff:t.backoff ~rng:t.rng n;
      reconnect t;
      go (n + 1)
  in
  go 0

let next_event t =
  if not (Queue.is_empty t.events) then Queue.pop t.events
  else
    match read_frame t with
    | Proto.Job_event e -> e
    | Proto.Error_frame m -> fail "server error: %s" m
    | _ -> fail "expected Job_event"

let stats t =
  send t Proto.Stats;
  match read_reply t with
  | Proto.Stats_ok counters -> counters
  | _ -> fail "expected Stats_ok"

let stats_full t =
  send t Proto.Stats_full;
  match read_reply t with
  | Proto.Stats_full_ok text -> text
  | _ -> fail "expected Stats_full_ok"

let ping t payload =
  send t (Proto.Ping payload);
  match read_reply t with
  | Proto.Pong echoed -> echoed
  | _ -> fail "expected Pong"

let close t =
  (try send t Proto.Quit with Unix.Unix_error _ | Protocol_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- convenience: submit a batch, await all terminal events ---------- *)

type outcome = Done of Proto.event | Refused of string

let run_batch ?on_event t specs =
  let observe e = match on_event with Some f -> f e | None -> () in
  let accepted = Hashtbl.create 16 in
  let order =
    List.map
      (fun spec ->
        match submit t spec with
        | Ok id ->
          Hashtbl.replace accepted id None;
          `Id id
        | Error reason -> `Refused (spec.Proto.spec_tag, reason))
      specs
  in
  let outstanding = ref (Hashtbl.length accepted) in
  while !outstanding > 0 do
    match next_event t with
    | Proto.Started _ as e -> observe e
    | (Proto.Finished { id; _ } | Proto.Job_failed { id; _ }) as e ->
      observe e;
      (match Hashtbl.find_opt accepted id with
       | Some None ->
         Hashtbl.replace accepted id (Some e);
         decr outstanding
       | _ -> fail "terminal event for unknown job %d" id)
  done;
  List.map
    (fun slot ->
      match slot with
      | `Refused (_, reason) -> Refused reason
      | `Id id -> (
        match Hashtbl.find accepted id with
        | Some e -> Done e
        | None -> assert false))
    order
