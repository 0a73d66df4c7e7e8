(* ptaintd: the wire codec must round-trip every frame type and
   reject every corruption with a typed error, and the server must
   survive its clients — hostile ones included.  The loopback tests
   run a real server on a real Unix-domain socket with the event loop
   on its own domain. *)

module Proto = Ptaint_daemon.Proto
module Client = Ptaint_daemon.Client
module Server = Ptaint_daemon.Server
module Fi = Ptaint_fi.Fi

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* --- codec: round-trips ---------------------------------------------- *)

let spec_full =
  Proto.job_spec ~tag:"exploit-42" ~policy:"control-only"
    ~argv:[ "victim"; "--flag" ]
    ~env:[ ("HOME", "/"); ("TERM", "dumb") ]
    ~stdin:(String.make 300 'A' ^ "\x00\xff")
    ~sessions:[ [ "GET / HTTP/1.0"; "Host: x" ]; [] ]
    ~max_instructions:123_456_789
    ~injections:
      [ { Fi.at = 1000; fault = Fi.Flip_data { addr = 0x10000000; bit = 3 } };
        { Fi.at = 2000; fault = Fi.Flip_reg { slot = 4; bit = 31 } };
        { Fi.at = 3000; fault = Fi.Taint_loss { addr = 0x10000040; len = 64 } };
        { Fi.at = 4000; fault = Fi.Spurious_taint { addr = 16; len = 1 } };
        { Fi.at = 5000; fault = Fi.Reg_taint_loss { slot = 29 } };
        { Fi.at = 6000; fault = Fi.Reg_spurious_taint { slot = 31 } };
        { Fi.at = 7000; fault = Fi.Taint_wipe };
        { Fi.at = 8000; fault = Fi.Stuck_clean { addr = 0x7fff0000; len = 16384 } } ]
    ~timeout:2.5
    (Proto.Wire_c "int main() { return 0; }")

let spec_traced =
  Proto.job_spec ~tag:"traced" ~trace:(0x1234_5678_9abc_def0, 17)
    (Proto.Wire_asm ".text\nmain: j main\n")

let requests =
  [ ("hello", Proto.Hello { client = "test" });
    ("submit-full", Proto.Submit spec_full);
    ("submit-minimal", Proto.Submit (Proto.job_spec ~tag:"" (Proto.Wire_asm "")));
    ("submit-traced", Proto.Submit spec_traced);
    ("stats-full", Proto.Stats_full);
    ("ping", Proto.Ping "payload\x00\x01");
    ("quit", Proto.Quit) ]

let responses =
  [ ("hello-ok", Proto.Hello_ok { banner = "ptaintd" });
    ("accepted", Proto.Accepted { id = max_int / 2; tag = "t" });
    ("rejected", Proto.Rejected { tag = "t"; reason = "queue full (256 jobs in flight)" });
    ("started", Proto.Job_event (Proto.Started { id = 1 }));
    ( "finished",
      Proto.Job_event
        (Proto.Finished
           { id = 7; tag = "a/b"; outcome = "exited with status 0"; exit_code = 0;
             instructions = 1_000_000_007; syscalls = 42;
             policy_label = "pointer taintedness"; cache_hit = true;
             counters = [ ("jobs", 1); ("instructions", 1_000_000_007) ];
             stdout = "hello\nworld\n"; trace = None; alert_pc = None }) );
    ( "finished-traced",
      Proto.Job_event
        (Proto.Finished
           { id = 9; tag = "t"; outcome = "exited with status 0"; exit_code = 0;
             instructions = 3; syscalls = 1; policy_label = "pointer taintedness";
             cache_hit = false; counters = [ ("jobs", 1) ]; stdout = "";
             trace = Some (max_int, max_int); alert_pc = None }) );
    ( "failed",
      Proto.Job_event
        (Proto.Job_failed
           { id = 8; tag = "x"; kind = "timeout"; message = "Sim.Timeout";
             policy_label = "no protection"; counters = [ ("jobs", 1); ("timeouts", 1) ];
             trace = Some (0x0fed_cba9_8765_4321, 2) }) );
    ( "stats-full-ok",
      Proto.Stats_full_ok
        "# TYPE ptaintd_jobs_total counter\nptaintd_jobs_total{outcome=\"exited\"} 3\n" );
    ("pong", Proto.Pong "");
    ("error", Proto.Error_frame "bad magic (not a ptaintd stream)") ]

let test_request_roundtrip () =
  List.iter
    (fun (name, req) ->
      let encoded = Proto.encode_request req in
      match Proto.decode_request encoded with
      | Ok (Some (decoded, consumed)) ->
        Alcotest.(check int) (name ^ ": consumed") (String.length encoded) consumed;
        Alcotest.(check bool) (name ^ ": equal") true (decoded = req)
      | Ok None -> Alcotest.fail (name ^ ": decoder wants more bytes")
      | Error e -> Alcotest.fail (name ^ ": " ^ Proto.error_message e))
    requests

let test_response_roundtrip () =
  List.iter
    (fun (name, resp) ->
      let encoded = Proto.encode_response resp in
      match Proto.decode_response encoded with
      | Ok (Some (decoded, consumed)) ->
        Alcotest.(check int) (name ^ ": consumed") (String.length encoded) consumed;
        Alcotest.(check bool) (name ^ ": equal") true (decoded = resp)
      | Ok None -> Alcotest.fail (name ^ ": decoder wants more bytes")
      | Error e -> Alcotest.fail (name ^ ": " ^ Proto.error_message e))
    responses

(* two frames back to back: the decoder consumes exactly one *)
let test_two_frames () =
  let a = Proto.encode_request (Proto.Ping "one") in
  let b = Proto.encode_request Proto.Quit in
  match Proto.decode_request (a ^ b) with
  | Ok (Some (Proto.Ping "one", consumed)) ->
    Alcotest.(check int) "first frame only" (String.length a) consumed;
    (match Proto.decode_request b with
     | Ok (Some (Proto.Quit, _)) -> ()
     | _ -> Alcotest.fail "second frame")
  | _ -> Alcotest.fail "first frame"

(* every strict prefix of a valid frame is Ok None, never an error —
   this is what makes a slowloris client harmless *)
let test_incomplete_is_not_an_error () =
  let frame = Proto.encode_request (Proto.Submit spec_full) in
  for n = 0 to String.length frame - 1 do
    match Proto.decode_request (String.sub frame 0 n) with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.fail (Printf.sprintf "prefix %d decoded a frame" n)
    | Error e ->
      Alcotest.fail (Printf.sprintf "prefix %d: %s" n (Proto.error_message e))
  done

(* --- codec: typed rejection of hostile bytes ------------------------- *)

let expect_error name buf pred =
  match Proto.decode_request buf with
  | Error e when pred e -> ()
  | Error e -> Alcotest.fail (name ^ ": wrong error: " ^ Proto.error_message e)
  | Ok _ -> Alcotest.fail (name ^ ": accepted hostile bytes")

let test_bad_magic () =
  expect_error "garbage" "GET / HTTP/1.0\r\n\r\n" (function Proto.Bad_magic -> true | _ -> false);
  expect_error "second byte" "PX\x01\x01\x00\x00\x00\x00" (function Proto.Bad_magic -> true | _ -> false)

let test_bad_version () =
  let f = Bytes.of_string (Proto.encode_request Proto.Quit) in
  Bytes.set f 2 '\x63';
  expect_error "version 99" (Bytes.to_string f)
    (function Proto.Bad_version 99 -> true | _ -> false)

let test_bad_tag () =
  let f = Bytes.of_string (Proto.encode_request Proto.Quit) in
  Bytes.set f 3 '\x7f';
  expect_error "tag 0x7f" (Bytes.to_string f)
    (function Proto.Bad_tag 0x7f -> true | _ -> false)

let test_oversized () =
  let b = Bytes.of_string (Proto.encode_request (Proto.Ping "x")) in
  (* announce a 64 MiB payload in the header *)
  Bytes.set b 4 '\x04'; Bytes.set b 5 '\x00'; Bytes.set b 6 '\x00'; Bytes.set b 7 '\x00';
  expect_error "64MiB announced" (Bytes.to_string b)
    (function Proto.Oversized n -> n = 64 * 1024 * 1024 | _ -> false)

let malformed = function Proto.Malformed _ -> true | _ -> false

let test_trailing_garbage () =
  (* valid Quit frame claiming a 4-byte payload of junk *)
  let f = Bytes.of_string (Proto.encode_request Proto.Quit) in
  Bytes.set f 7 '\x04';
  expect_error "trailing junk" (Bytes.to_string f ^ "ABCD") malformed

let test_truncated_payload () =
  (* a Ping whose inner string length points past the payload end *)
  let good = Proto.encode_request (Proto.Ping "abcd") in
  let f = Bytes.of_string good in
  (* payload starts at offset 8 with the u32 string length; inflate it
     while the frame length in the header stays truthful *)
  Bytes.set f 8 '\x00';
  Bytes.set f 11 '\xff';
  expect_error "inner length lies" (Bytes.to_string f) malformed

let test_unknown_fault_tag () =
  let spec = Proto.job_spec ~tag:"t" ~injections:[ { Fi.at = 1; fault = Fi.Taint_wipe } ]
      (Proto.Wire_asm "") in
  let f = Bytes.of_string (Proto.encode_request (Proto.Submit spec)) in
  (* layout ends [...at:i64][fault tag] and three absent options
     (timeout, trace, idem): the Taint_wipe tag (6) sits fourth from
     the end — flip it to 250 *)
  let idx = Bytes.length f - 4 in
  Alcotest.(check char) "located fault tag" '\x06' (Bytes.get f idx);
  Bytes.set f idx '\xfa';
  expect_error "fault tag 250" (Bytes.to_string f) malformed

(* Non-canonical bytes: each value has one encoding, so a presence
   byte of 2 and an i64 that no OCaml int holds are refused rather
   than decoded to something that re-encodes differently. *)
let test_non_canonical () =
  let submit = Proto.encode_request (Proto.Submit (Proto.job_spec ~tag:"t" (Proto.Wire_asm ""))) in
  let f = Bytes.of_string submit in
  (* the last byte is the idempotency key's presence byte *)
  Bytes.set f (Bytes.length f - 1) '\x02';
  expect_error "presence byte 2" (Bytes.to_string f) malformed;
  (* a timeout of min_int microseconds: an int, but past 2^50 us *)
  let timed =
    Proto.encode_request (Proto.Submit (Proto.job_spec ~tag:"t" ~timeout:1. (Proto.Wire_asm "")))
  in
  let f = Bytes.of_string timed in
  Bytes.set_int64_be f (Bytes.length f - 10) (Int64.of_int min_int);
  expect_error "seconds out of range" (Bytes.to_string f) malformed;
  let accepted = Proto.encode_response (Proto.Accepted { id = 1; tag = "" }) in
  let f = Bytes.of_string accepted in
  (* the job id i64 starts the payload: 0x4000000000000001 *)
  Bytes.set f Proto.header_bytes '\x40';
  match Proto.decode_response (Bytes.to_string f) with
  | Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "an i64 above 2^62 must be Malformed"

(* --- one protocol version -------------------------------------------- *)

(* Every peer runs the same build: any version byte but [Proto.version]
   is refused from the header alone. *)
let test_version_sweep () =
  Alcotest.(check int) "protocol version" 6 Proto.version;
  List.iter
    (fun v ->
      let f = Bytes.of_string (Proto.encode_request Proto.Quit) in
      Bytes.set f 2 (Char.chr v);
      expect_error (Printf.sprintf "version %d" v) (Bytes.to_string f)
        (function Proto.Bad_version v' -> v' = v | _ -> false))
    [ 0; 1; 2; 3; 4; 5; 7; 255 ]

let test_future_version_rejected () =
  let f = Bytes.of_string (Proto.encode_request Proto.Quit) in
  Bytes.set f 2 '\x07';
  match Proto.decode_request (Bytes.to_string f) with
  | Error (Proto.Bad_version 7) -> ()
  | _ -> Alcotest.fail "version 7 must be rejected"

(* v5's [Stats] request (tag 0x03) and its reply (tag 0x85) are
   retired: a v5 frame is refused by its version byte, and either
   tag under the current version is [Bad_tag]. *)
let test_retired_tags () =
  expect_error "v5 Stats frame" "PD\x05\x03\x00\x00\x00\x00"
    (function Proto.Bad_version 5 -> true | _ -> false);
  let retag frame tag =
    let f = Bytes.of_string frame in
    Bytes.set f 3 (Char.chr tag);
    Bytes.to_string f
  in
  expect_error "request tag 0x03" (retag (Proto.encode_request Proto.Quit) 0x03)
    (function Proto.Bad_tag 0x03 -> true | _ -> false);
  match Proto.decode_response (retag (Proto.encode_response (Proto.Pong "")) 0x85) with
  | Error (Proto.Bad_tag 0x85) -> ()
  | _ -> Alcotest.fail "response tag 0x85 must be Bad_tag"

let test_idem_roundtrip () =
  let spec = Proto.job_spec ~tag:"keyed" ~idem:"campaign#7" (Proto.Wire_asm "") in
  match Proto.decode_request (Proto.encode_request (Proto.Submit spec)) with
  | Ok (Some (Proto.Submit s, _)) ->
    Alcotest.(check (option string)) "idem" (Some "campaign#7") s.Proto.spec_idem
  | _ -> Alcotest.fail "keyed spec did not round-trip"

(* The alert pc sits after the trace id on Finished events, each a
   presence byte and its value at a fixed position: setting either
   adds exactly its value's bytes. *)
let test_v4_alert_pc () =
  let finished ?trace ?alert_pc () =
    Proto.Job_event
      (Proto.Finished
         { id = 3; tag = "a"; outcome = "SECURITY ALERT"; exit_code = 3;
           instructions = 10; syscalls = 1; policy_label = "pointer taintedness";
           cache_hit = false; counters = [ ("jobs", 1) ]; stdout = ""; trace; alert_pc })
  in
  let enc r = Proto.encode_response r in
  let bare = String.length (enc (finished ())) in
  Alcotest.(check int) "pc only" (bare + 8)
    (String.length (enc (finished ~alert_pc:0x400020 ())));
  Alcotest.(check int) "trace + pc" (bare + 16 + 8)
    (String.length (enc (finished ~trace:(5, 6) ~alert_pc:0x400020 ())));
  List.iter
    (fun r ->
      match Proto.decode_response (enc r) with
      | Ok (Some (d, _)) -> Alcotest.(check bool) "alert pc round-trip" true (d = r)
      | _ -> Alcotest.fail "Finished did not round-trip")
    [ finished ~alert_pc:0x400020 (); finished ~trace:(5, 6) ~alert_pc:0x400020 () ]

(* Seconds travel as the nearest whole microsecond: every count in
   [0, 2 s] must survive a decode to a float and an encode back.  The
   template is a minimal spec with a timeout, whose i64 is patched in
   place; it ends [timeout i64][trace][idem]. *)
let test_us_round_trip () =
  let template =
    Bytes.of_string
      (Proto.encode_request
         (Proto.Submit (Proto.job_spec ~tag:"t" ~timeout:0. (Proto.Wire_asm ""))))
  in
  let at = Bytes.length template - 10 in
  Alcotest.(check char) "timeout present" '\x01' (Bytes.get template (at - 1));
  let bad = ref 0 and first = ref (-1) in
  for us = 0 to 2_000_000 do
    Bytes.set_int64_be template at (Int64.of_int us);
    let frame = Bytes.to_string template in
    match Proto.decode_request frame with
    | Ok (Some (req, _)) when Proto.encode_request req = frame -> ()
    | _ ->
      incr bad;
      if !first < 0 then first := us
  done;
  if !bad > 0 then
    Alcotest.failf "%d microsecond counts do not round-trip (first: %d us)" !bad !first;
  (* a budget past 2^50 us (35 years) saturates rather than wrapping *)
  match
    Proto.decode_request
      (Proto.encode_request
         (Proto.Submit (Proto.job_spec ~tag:"t" ~timeout:1e12 (Proto.Wire_asm ""))))
  with
  | Ok (Some (Proto.Submit s, _)) ->
    Alcotest.(check (option (float 0.))) "saturated" (Some (float_of_int (1 lsl 50) /. 1e6))
      s.Proto.spec_timeout
  | _ -> Alcotest.fail "a long timeout did not round-trip"

(* --- codec property -------------------------------------------------- *)

(* Random frames of every request and response constructor, optional
   fields set and unset.  Each must round-trip; every strict prefix
   must ask for more bytes; and every single-byte change must be
   refused with a typed error, ask for more bytes (only a grown
   header length can), or decode to a value whose encoding is exactly
   the changed frame — never raise. *)
module G = QCheck2.Gen

let g_str = G.string_size (G.int_range 0 6)
let g_int = G.oneof [ G.int; G.int_range (-300) 300 ]
let g_opt g = G.oneof [ G.pure None; G.map Option.some g ]
let g_list g = G.list_size (G.int_range 0 2) g
let g_trace = G.pair g_int g_int

let g_seconds =
  G.map
    (fun us -> float_of_int us /. 1e6)
    (G.oneof [ G.int_range 0 2_000_000; G.int_range (-(1 lsl 50)) (1 lsl 50) ])

let g_fault =
  let open G in
  let bit = int_range 0 255 in
  oneof
    [ map2 (fun addr bit -> Fi.Flip_data { addr; bit }) g_int bit;
      map2 (fun slot bit -> Fi.Flip_reg { slot; bit }) g_int bit;
      map2 (fun addr len -> Fi.Taint_loss { addr; len }) g_int g_int;
      map2 (fun addr len -> Fi.Spurious_taint { addr; len }) g_int g_int;
      map (fun slot -> Fi.Reg_taint_loss { slot }) g_int;
      map (fun slot -> Fi.Reg_spurious_taint { slot }) g_int;
      pure Fi.Taint_wipe;
      map2 (fun addr len -> Fi.Stuck_clean { addr; len }) g_int g_int ]

let g_spec =
  let open G in
  let+ payload = oneof [ map (fun s -> Proto.Wire_asm s) g_str; map (fun s -> Proto.Wire_c s) g_str ]
  and+ tag = g_str
  and+ policy = g_opt g_str
  and+ argv = g_list g_str
  and+ env = g_list (pair g_str g_str)
  and+ stdin = g_str
  and+ sessions = g_list (g_list g_str)
  and+ max_instructions = g_opt g_int
  and+ injections = g_list (map2 (fun at fault -> { Fi.at; fault }) g_int g_fault)
  and+ timeout = g_opt g_seconds
  and+ trace = g_opt g_trace
  and+ idem = g_opt g_str in
  { Proto.spec_tag = tag; spec_payload = payload; spec_policy = policy; spec_argv = argv;
    spec_env = env; spec_stdin = stdin; spec_sessions = sessions;
    spec_max_instructions = max_instructions; spec_injections = injections;
    spec_timeout = timeout; spec_trace = trace; spec_idem = idem }

let g_request =
  let open G in
  oneof
    [ map (fun client -> Proto.Hello { client }) g_str;
      map (fun s -> Proto.Submit s) g_spec;
      pure Proto.Stats_full;
      map (fun s -> Proto.Ping s) g_str;
      pure Proto.Quit ]

let g_counters = g_list (G.pair g_str g_int)

let g_event =
  let open G in
  oneof
    [ map (fun id -> Proto.Started { id }) g_int;
      (let+ id = g_int and+ tag = g_str and+ outcome = g_str and+ exit_code = g_int
       and+ instructions = g_int and+ syscalls = g_int and+ policy_label = g_str
       and+ cache_hit = bool and+ counters = g_counters and+ stdout = g_str
       and+ trace = g_opt g_trace and+ alert_pc = g_opt g_int in
       Proto.Finished
         { id; tag; outcome; exit_code; instructions; syscalls; policy_label; cache_hit;
           counters; stdout; trace; alert_pc });
      (let+ id = g_int and+ tag = g_str and+ kind = g_str and+ message = g_str
       and+ policy_label = g_str and+ counters = g_counters and+ trace = g_opt g_trace in
       Proto.Job_failed { id; tag; kind; message; policy_label; counters; trace }) ]

let g_response =
  let open G in
  oneof
    [ map (fun banner -> Proto.Hello_ok { banner }) g_str;
      map2 (fun id tag -> Proto.Accepted { id; tag }) g_int g_str;
      map2 (fun tag reason -> Proto.Rejected { tag; reason }) g_str g_str;
      map (fun e -> Proto.Job_event e) g_event;
      map (fun s -> Proto.Stats_full_ok s) g_str;
      map (fun s -> Proto.Pong s) g_str;
      map (fun s -> Proto.Error_frame s) g_str ]

let hex s =
  String.concat "" (List.of_seq (Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (String.to_seq s)))

let codec_holds ~encode ~decode v =
  let frame = encode v in
  let n = String.length frame in
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_reportf "%s (frame %s)" m (hex frame)) fmt in
  (match decode frame with
   | Ok (Some (v', k)) when v' = v && k = n -> ()
   | _ -> fail "does not round-trip");
  for k = 0 to n - 1 do
    match decode (String.sub frame 0 k) with
    | Ok None -> ()
    | _ -> fail "prefix %d is not Ok None" k
  done;
  let b = Bytes.of_string frame in
  for i = 0 to n - 1 do
    let orig = Bytes.get b i in
    for x = 1 to 255 do
      Bytes.set b i (Char.chr (Char.code orig lxor x));
      let mutated = Bytes.to_string b in
      (match decode mutated with
       | Error _ -> ()
       | Ok None -> if i < 4 || i >= Proto.header_bytes then fail "byte %d: Ok None" i
       | Ok (Some (v', k)) ->
         if k <> n || encode v' <> mutated then
           fail "byte %d ^ 0x%02x decodes to a value that re-encodes differently" i x
       | exception e -> fail "byte %d ^ 0x%02x raised %s" i x (Printexc.to_string e))
    done;
    Bytes.set b i orig
  done;
  true

let prop_requests =
  QCheck2.Test.make ~count:150 ~name:"requests: canonical codec" g_request
    (codec_holds ~encode:Proto.encode_request ~decode:Proto.decode_request)

let prop_responses =
  QCheck2.Test.make ~count:150 ~name:"responses: canonical codec" g_response
    (codec_holds ~encode:Proto.encode_response ~decode:Proto.decode_response)

(* --- frame streams ------------------------------------------------------ *)

(* A memory-backed byte source with the [Unix.read] shape: each call
   hands out at most [chunk ()] of the remaining bytes, [0] at the
   end. *)
let source s ~chunk =
  let pos = ref 0 in
  let read buf off len =
    let n = min len (min (chunk ()) (String.length s - !pos)) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n
  in
  (read, pos)

(* Pump a reader dry: every frame it yields, then the error or EOF. *)
let drain_reader r read =
  let rec go acc =
    match Proto.next r with
    | Ok (Some v) -> go (v :: acc)
    | Error e -> (List.rev acc, Some e)
    | Ok None -> if Proto.fill r read = 0 then (List.rev acc, None) else go acc
  in
  go []

(* What [decode_*] makes of one whole frame string. *)
let whole decode frame =
  match decode frame with
  | Ok (Some (v, n)) when n = String.length frame -> v
  | _ -> Alcotest.fail "fixture does not decode whole"

(* Big enough to outgrow the reader's initial buffer. *)
let big_response = Proto.Stats_full_ok (String.init 200_000 (fun i -> Char.chr (i land 0xff)))

let split_regimes rng =
  [ ("1-byte dribble", fun () -> 1);
    ("small chunks", fun () -> 1 + Random.State.int rng 16);
    ("socket-sized chunks", fun () -> 1 + Random.State.int rng 4096);
    ("everything at once", fun () -> max_int) ]

let check_stream name ~encode ~decode ~reader fixtures =
  let rng = Random.State.make [| 17 |] in
  let frames = List.map encode fixtures in
  let expected = List.map (whole decode) frames in
  (* every fixture three times, shuffled, so each frame meets every
     kind of neighbour and split point *)
  let order =
    List.concat [ expected; expected; expected ]
    |> List.combine (List.concat [ frames; frames; frames ])
    |> List.map (fun fv -> (Random.State.bits rng, fv))
    |> List.sort compare |> List.map snd
  in
  let stream = String.concat "" (List.map fst order) in
  List.iter
    (fun (regime, chunk) ->
      let r = reader () in
      let read, _ = source stream ~chunk in
      let got, err = drain_reader r read in
      let ctx = Printf.sprintf "%s, %s" name regime in
      (match err with
       | None -> ()
       | Some e -> Alcotest.failf "%s: %s" ctx (Proto.error_message e));
      Alcotest.(check int) (ctx ^ ": frame count") (List.length order) (List.length got);
      Alcotest.(check bool) (ctx ^ ": values as decode_* gives them") true
        (got = List.map snd order);
      Alcotest.(check int) (ctx ^ ": nothing left over") 0 (Proto.buffered r))
    (split_regimes rng)

let test_stream_requests () =
  check_stream "requests" ~encode:Proto.encode_request ~decode:Proto.decode_request
    ~reader:Proto.request_reader (List.map snd requests)

let test_stream_responses () =
  check_stream "responses" ~encode:Proto.encode_response ~decode:Proto.decode_response
    ~reader:Proto.response_reader
    (big_response :: List.map snd responses)

(* The outbox writes exactly the bytes [encode_*] renders, frame after
   frame, whatever the write function takes per call. *)
let test_outbox_bytes () =
  let o = Proto.outbox () in
  List.iter (fun (_, resp) -> Proto.add_response o resp) responses;
  Proto.add_response o big_response;
  let expected =
    String.concat ""
      (List.map (fun (_, resp) -> Proto.encode_response resp) responses
       @ [ Proto.encode_response big_response ])
  in
  let out = Buffer.create 1024 in
  let rng = Random.State.make [| 5 |] in
  Proto.flush_all o (fun b off len ->
      let n = min len (1 + Random.State.int rng 5000) in
      Buffer.add_subbytes out b off n;
      n);
  Alcotest.(check int) "drained" 0 (Proto.pending o);
  Alcotest.(check bool) "same bytes as encode_response" true (Buffer.contents out = expected);
  (* a frame that cannot be encoded leaves no partial frame behind *)
  Proto.add_request o Proto.Quit;
  let before = Proto.pending o in
  let long_argv = List.init 70_000 string_of_int in
  (match Proto.add_request o (Proto.Submit (Proto.job_spec ~tag:"t" ~argv:long_argv (Proto.Wire_asm ""))) with
   | () -> Alcotest.fail "a 70000-entry list must not encode"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "failed frame cut off" before (Proto.pending o)

let oversized_header =
  let b = Bytes.of_string (Proto.encode_request (Proto.Ping "x")) in
  Bytes.set b 4 '\x04';
  Bytes.set b 5 '\x00';
  Bytes.set b 6 '\x00';
  Bytes.set b 7 '\x00';
  Bytes.sub_string b 0 Proto.header_bytes

let test_stream_oversized () =
  let r = Proto.request_reader () in
  let initial = Proto.capacity r in
  (* the header, then what would be its payload *)
  let read, pos = source (oversized_header ^ String.make 100_000 'A') ~chunk:(fun () -> 8) in
  Alcotest.(check int) "header read" 8 (Proto.fill r read);
  (match Proto.next r with
   | Error (Proto.Oversized n) -> Alcotest.(check int) "announced" (64 * 1024 * 1024) n
   | _ -> Alcotest.fail "expected Oversized from the header alone");
  Alcotest.(check int) "later fills read nothing" 0 (Proto.fill r read);
  Alcotest.(check int) "no payload byte taken from the stream" 8 !pos;
  Alcotest.(check int) "only the header buffered" 8 (Proto.buffered r);
  Alcotest.(check int) "buffer never grew" initial (Proto.capacity r);
  (* a caller that reads again before decoding: the announced size
     must not size the buffer either *)
  let r = Proto.request_reader () in
  let read, _ = source (oversized_header ^ String.make 100_000 'A') ~chunk:(fun () -> 4096) in
  for _ = 1 to 8 do
    ignore (Proto.fill r read)
  done;
  Alcotest.(check int) "no growth for an oversized header" initial (Proto.capacity r);
  match Proto.next r with
  | Error (Proto.Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized"

let test_stream_compaction () =
  let r = Proto.response_reader () in
  let initial = Proto.capacity r in
  let small = Proto.encode_response (Proto.Pong "ok") in
  (* a burst of small frames fills and empties the buffer many times
     over without growing it *)
  let burst = String.concat "" (List.init 5_000 (fun _ -> small)) in
  let read, _ = source burst ~chunk:(fun () -> max_int) in
  let got, err = drain_reader r read in
  Alcotest.(check bool) "burst decoded" true (err = None && List.length got = 5_000);
  Alcotest.(check int) "small frames never grow the buffer" initial (Proto.capacity r);
  (* a frame bigger than the buffer grows it; once it is consumed and
     a small frame follows, the buffer is back to its initial size *)
  let read, _ =
    source (Proto.encode_response big_response ^ small ^ small) ~chunk:(fun () -> 3000)
  in
  (match Proto.next r with
   | Ok None -> ()
   | _ -> Alcotest.fail "empty reader yielded a frame");
  let rec until_frame () =
    match Proto.next r with
    | Ok (Some v) -> v
    | Ok None -> if Proto.fill r read = 0 then Alcotest.fail "EOF" else until_frame ()
    | Error e -> Alcotest.fail (Proto.error_message e)
  in
  Alcotest.(check bool) "big frame intact" true (until_frame () = big_response);
  Alcotest.(check bool) "grew for the big frame" true (Proto.capacity r > initial);
  Alcotest.(check bool) "next small frame" true (until_frame () = Proto.Pong "ok");
  Alcotest.(check int) "back to the initial size" initial (Proto.capacity r);
  Alcotest.(check bool) "last small frame" true (until_frame () = Proto.Pong "ok")

(* Framing cannot resynchronise: the first error is the reader's answer
   from then on, whatever valid frames follow it — and it is the error
   [decode_request] gives on the same bytes. *)
let test_stream_error_sticks () =
  let quit = Proto.encode_request Proto.Quit in
  let bad_tag =
    let f = Bytes.of_string quit in
    Bytes.set f 3 '\x7f';
    Bytes.to_string f
  in
  List.iter
    (fun (name, hostile) ->
      let expected =
        match Proto.decode_request hostile with
        | Error e -> e
        | Ok _ -> Alcotest.failf "%s: decode_request accepted it" name
      in
      let r = Proto.request_reader () in
      let read, _ = source (quit ^ hostile ^ quit ^ quit) ~chunk:(fun () -> 5) in
      let got, err = drain_reader r read in
      Alcotest.(check bool) (name ^ ": frame before the error decoded") true
        (got = [ Proto.Quit ]);
      Alcotest.(check bool) (name ^ ": same error as decode_request") true
        (err = Some expected);
      for _ = 1 to 3 do
        Alcotest.(check bool) (name ^ ": error sticks") true (Proto.next r = Error expected);
        Alcotest.(check int) (name ^ ": no more reads") 0 (Proto.fill r read)
      done)
    [ ("garbage", "GET / HTTP/1.0\r\n\r\n");
      ("bad tag", bad_tag);
      ("oversized", oversized_header);
      ( "future version",
        let f = Bytes.of_string quit in
        Bytes.set f 2 '\x07';
        Bytes.to_string f ) ]

(* --- job spec <-> Job.t ---------------------------------------------- *)

let test_job_of_spec () =
  match Proto.job_of_spec spec_full with
  | Error m -> Alcotest.fail m
  | Ok job ->
    Alcotest.(check string) "tag" "exploit-42" job.Ptaint_campaign.Job.tag;
    Alcotest.(check int) "injections" 8 (List.length job.Ptaint_campaign.Job.injections);
    Alcotest.(check (option (float 1e-9))) "timeout" (Some 2.5) job.Ptaint_campaign.Job.timeout;
    let c = job.Ptaint_campaign.Job.config in
    Alcotest.(check (list string)) "argv" [ "victim"; "--flag" ] c.Ptaint_sim.Sim.argv;
    Alcotest.(check int) "fuel" 123_456_789 c.Ptaint_sim.Sim.max_instructions;
    (* the canonical label must come from the policy, as in batch mode *)
    Alcotest.(check string) "derived label" "control-data only"
      (Ptaint_campaign.Campaign.label_of_policy c.Ptaint_sim.Sim.policy)

let test_job_trace_roundtrip () =
  match Proto.job_of_spec spec_traced with
  | Error m -> Alcotest.fail m
  | Ok job ->
    Alcotest.(check bool) "trace survives job_of_spec" true
      (job.Ptaint_campaign.Job.trace = Some (0x1234_5678_9abc_def0, 17));
    (match Proto.spec_of_job job with
     | Error m -> Alcotest.fail m
     | Ok spec ->
       Alcotest.(check bool) "trace survives spec_of_job" true
         (spec.Proto.spec_trace = Some (0x1234_5678_9abc_def0, 17)))

let test_job_of_spec_bad_policy () =
  match Proto.job_of_spec (Proto.job_spec ~tag:"t" ~policy:"nonsense" (Proto.Wire_asm "")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown policy label"

(* --- loopback server ------------------------------------------------- *)

let exit_asm = ".text\nmain: li $v0, 1\n li $a0, 0\n syscall\n"
let spin_asm = ".text\nmain: j main\n"

(* A spinner job that only the wall-clock watchdog can stop: the
   default fuel budget is finite, and a fast engine can burn through
   it before a sub-second timeout fires. *)
let spin_spec ~timeout =
  Proto.job_spec ~tag:"spin" ~timeout ~max_instructions:max_int
    (Proto.Wire_asm spin_asm)

let with_server ?(domains = 2) ?(max_queue = 64) ?(max_inflight = 8) ?(cache_capacity = 64) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ptaintd-test-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { (Server.default_config ~socket_path:path) with
      Server.domains = Some domains; max_queue; max_inflight; cache_capacity }
  in
  let server = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join d;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path server)

let exit_spec ?(tag = "exit") () = Proto.job_spec ~tag (Proto.Wire_asm exit_asm)

let rec wait_terminal c =
  match Client.next_event c with
  | Proto.Started _ -> wait_terminal c
  | e -> e

let test_loopback_submit_stream () =
  with_server (fun path _server ->
      let c = Client.connect ~client:"test" path in
      Alcotest.(check string) "banner" "ptaintd" (Client.banner c);
      (match Client.submit c (exit_spec ()) with
       | Error m -> Alcotest.fail ("rejected: " ^ m)
       | Ok id -> (
         match wait_terminal c with
         | Proto.Finished f ->
           Alcotest.(check int) "event id" id f.id;
           Alcotest.(check string) "outcome" "exited with status 0" f.outcome;
           Alcotest.(check int) "exit code" 0 f.exit_code;
           Alcotest.(check int) "instructions" 3 f.instructions;
           Alcotest.(check bool) "first run misses the cache" false f.cache_hit;
           Alcotest.(check (list (pair string int)))
             "streamed counter deltas"
             [ ("jobs", 1); ("instructions", 3); ("syscalls", 1);
               ("tainted loads", 0); ("tainted stores", 0) ]
             f.counters
         | _ -> Alcotest.fail "expected Finished"));
      (* same program again: must boot from the snapshot cache *)
      (match Client.submit c (exit_spec ()) with
       | Error m -> Alcotest.fail ("rejected: " ^ m)
       | Ok _ -> (
         match wait_terminal c with
         | Proto.Finished f ->
           Alcotest.(check bool) "second run hits the cache" true f.cache_hit;
           Alcotest.(check int) "identical result" 3 f.instructions
         | _ -> Alcotest.fail "expected Finished"));
      let get = Counter_views.family (Client.stats_full c) in
      Alcotest.(check int) "one cache hit" 1 (get "ptaintd_cache_hits");
      Alcotest.(check int) "one cache miss" 1 (get "ptaintd_cache_misses");
      Alcotest.(check int) "two jobs completed" 2 (get "ptaintd_jobs_total");
      Client.close c)

let test_loopback_batch_and_failures () =
  with_server (fun path _server ->
      let c = Client.connect ~client:"test" path in
      let specs =
        [ exit_spec ~tag:"a" ();
          Proto.job_spec ~tag:"malformed" (Proto.Wire_asm ".data\nx: .space -4\n");
          spin_spec ~timeout:0.2;
          exit_spec ~tag:"b" () ]
      in
      match Client.run_batch c specs with
      | [ Client.Done (Proto.Finished a);
          Client.Done (Proto.Job_failed bad);
          Client.Done (Proto.Job_failed spin);
          Client.Done (Proto.Finished b) ] ->
        Alcotest.(check string) "a" "a" a.tag;
        Alcotest.(check string) "b survives its neighbours" "b" b.tag;
        Alcotest.(check string) "malformed source classified" "loader error" bad.kind;
        Alcotest.(check string) "wire timeout arms the watchdog" "timeout" spin.kind;
        Client.close c
      | _ -> Alcotest.fail "unexpected batch shape")

(* concurrent clients: two connections submitting interleaved batches *)
(* the correlation id travels submit -> worker -> terminal event, and
   from there into the JSONL result sink *)
let test_loopback_trace_roundtrip () =
  with_server (fun path _server ->
      let c = Client.connect ~client:"test" path in
      let trace = (0x0abc_def0_1234_5678, 3) in
      let spec =
        Proto.job_spec ~tag:"traced" ~trace (Proto.Wire_asm exit_asm)
      in
      (match Client.submit c spec with
       | Error m -> Alcotest.fail ("rejected: " ^ m)
       | Ok _ -> (
         match wait_terminal c with
         | Proto.Finished f ->
           Alcotest.(check bool) "event carries the trace" true
             (f.trace = Some trace);
           let s =
             { Ptaint_campaign.Campaign.s_index = 1; s_name = f.tag;
               s_label = f.policy_label; s_outcome = "exited";
               s_counters = f.counters; s_failed = false; s_violation = false;
               s_detected = false; s_alert_pc = None;
               s_instructions = f.instructions; s_syscalls = f.syscalls;
               s_attempts = 1; s_trace = f.trace; s_detail = Ptaint_campaign.Campaign.Text f.outcome;
               s_exit_code = f.exit_code;
               s_timing = { started = 0.; finished = 0.; domain = 0 } }
           in
           let line = Ptaint_campaign.Campaign.jsonl_of_summary s in
           Alcotest.(check bool) "jsonl carries the trace" true
             (let needle = "\"trace\":\"0abcdef012345678\",\"span\":3" in
              let n = String.length needle and l = String.length line in
              let rec scan i =
                i + n <= l && (String.sub line i n = needle || scan (i + 1))
              in
              scan 0);
           let bare = { s with s_trace = None } in
           let bare_line = Ptaint_campaign.Campaign.jsonl_of_summary bare in
           Alcotest.(check bool) "traceless jsonl keeps the historic shape" true
             (String.length bare_line < String.length line
              && not (let needle = "\"trace\":" in
                      let n = String.length needle and l = String.length bare_line in
                      let rec scan i =
                        i + n <= l && (String.sub bare_line i n = needle || scan (i + 1))
                      in
                      scan 0))
         | _ -> Alcotest.fail "expected Finished"));
      Client.close c)

(* Connections come and go without growing the exposition: outside
   histogram buckets (which fill in as durations arrive), the 100th
   connection's scrape lists exactly the series the first one did. *)
let test_scrape_series_stable () =
  with_server (fun path _server ->
      let series () =
        let c = Client.connect ~client:"test" path in
        let text = Client.stats_full c in
        Client.close c;
        let series_of line =
          match String.rindex_opt line ' ' with
          | Some i when line.[0] <> '#' ->
            let s = String.sub line 0 i in
            let name = List.hd (String.split_on_char '{' s) in
            if String.ends_with ~suffix:"_bucket" name then None else Some s
          | _ -> None
        in
        List.filter_map series_of (String.split_on_char '\n' text)
      in
      let first = series () in
      let last = ref [] in
      for _ = 2 to 100 do
        last := series ()
      done;
      Alcotest.(check (list string)) "series after 100 connections" first !last)

(* The in-process cache at [--cache 2]: three distinct programs and
   the first again, one at a time, evict the least recently used image
   twice, and the scrape's cache gauges say so. *)
let test_loopback_cache_eviction () =
  with_server ~cache_capacity:2 (fun path _server ->
      let c = Client.connect ~client:"test" path in
      let spec i =
        Proto.job_spec ~tag:(Printf.sprintf "prog-%d" i)
          (Proto.Wire_asm (Printf.sprintf ".text\nmain: li $v0, 1\n li $a0, %d\n syscall\n" i))
      in
      List.iter
        (fun i ->
          match Client.submit c (spec i) with
          | Error m -> Alcotest.fail ("rejected: " ^ m)
          | Ok _ -> (
            match wait_terminal c with
            | Proto.Finished f ->
              Alcotest.(check bool) (f.tag ^ " misses the cache") false f.cache_hit;
              Alcotest.(check int) (f.tag ^ " exit code") i f.exit_code
            | _ -> Alcotest.fail "expected Finished"))
        [ 0; 1; 2; 0 ];
      let get = Counter_views.family (Client.stats_full c) in
      List.iter
        (fun (name, v) -> Alcotest.(check int) name v (get name))
        [ ("ptaintd_cache_hits", 0); ("ptaintd_cache_misses", 4);
          ("ptaintd_cache_evictions", 2); ("ptaintd_cache_entries", 2);
          ("ptaintd_cache_capacity", 2) ];
      Client.close c)

let test_loopback_stats_full () =
  with_server (fun path _server ->
      let c = Client.connect ~client:"test" path in
      (match Client.submit c (exit_spec ()) with
       | Error m -> Alcotest.fail ("rejected: " ^ m)
       | Ok _ -> ignore (wait_terminal c));
      let text = Client.stats_full c in
      let has needle =
        let n = String.length needle and l = String.length text in
        let rec scan i = i + n <= l && (String.sub text i n = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "jobs_total family" true
        (has "# TYPE ptaintd_jobs_total counter");
      Alcotest.(check bool) "outcome label" true
        (has "ptaintd_jobs_total{outcome=\"exited\"} 1");
      Alcotest.(check bool) "cache gauges" true (has "ptaintd_cache_misses 1");
      Alcotest.(check bool) "latency histogram" true
        (has "ptaintd_job_duration_us_count 1");
      (* robustness families are pre-registered: they must render (at
         zero) even though no worker ever died in this server *)
      Alcotest.(check bool) "worker restarts family" true
        (has "# TYPE ptaintd_worker_restarts_total counter");
      Alcotest.(check bool) "restart reason children" true
        (has "ptaintd_worker_restarts_total{reason=\"crash\"} 0"
         && has "ptaintd_worker_restarts_total{reason=\"heartbeat\"} 0"
         && has "ptaintd_worker_restarts_total{reason=\"deadline\"} 0");
      Alcotest.(check bool) "redeliveries family" true
        (has "ptaintd_redeliveries_total 0");
      Alcotest.(check bool) "heartbeat misses family" true
        (has "ptaintd_heartbeat_misses_total 0");
      Alcotest.(check bool) "idem replays family" true
        (has "ptaintd_idem_replays_total 0");
      (* A guest that loops one block past the promotion threshold must
         surface translation-tier events in the scrape. *)
      let loop_asm =
        ".text\nmain: li $t0, 64\nloop: addi $t0, $t0, -1\n bgtz $t0, loop\n \
         li $v0, 1\n li $a0, 0\n syscall\n"
      in
      (match Client.submit c (Proto.job_spec ~tag:"loop" (Proto.Wire_asm loop_asm)) with
       | Error m -> Alcotest.fail ("rejected: " ^ m)
       | Ok _ -> ignore (wait_terminal c));
      let text2 = Client.stats_full c in
      let has2 needle =
        let n = String.length needle and l = String.length text2 in
        let rec scan i = i + n <= l && (String.sub text2 i n = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "superblock family" true
        (has2 "# TYPE ptaintd_superblock_events_total counter");
      Alcotest.(check bool) "superblock promotions counted" true
        (has2 "ptaintd_superblock_events_total{event=\"promoted\"}");
      Client.close c)

let test_loopback_two_clients () =
  with_server (fun path _server ->
      let c1 = Client.connect ~client:"one" path in
      let c2 = Client.connect ~client:"two" path in
      let ids1 = List.map (fun () -> Client.submit c1 (exit_spec ())) [ (); (); () ] in
      let ids2 = List.map (fun () -> Client.submit c2 (exit_spec ())) [ (); (); () ] in
      Alcotest.(check int) "c1 all accepted" 3
        (List.length (List.filter Result.is_ok ids1));
      Alcotest.(check int) "c2 all accepted" 3
        (List.length (List.filter Result.is_ok ids2));
      let count_finished c n =
        let seen = ref 0 in
        while !seen < n do
          match wait_terminal c with
          | Proto.Finished _ -> incr seen
          | _ -> Alcotest.fail "unexpected failure"
        done
      in
      count_finished c1 3;
      count_finished c2 3;
      Client.close c1;
      Client.close c2)

let test_admission_quota () =
  (* max_inflight 1: the second concurrent submission must bounce *)
  with_server ~max_inflight:1 (fun path _server ->
      let c = Client.connect ~client:"test" path in
      (match Client.submit c (spin_spec ~timeout:1.0) with
       | Ok _ -> ()
       | Error m -> Alcotest.fail ("first submission rejected: " ^ m));
      (match Client.submit c (exit_spec ()) with
       | Error reason ->
         Alcotest.(check bool) "quota message" true
           (String.length reason > 0)
       | Ok _ -> Alcotest.fail "quota not enforced");
      (* drain the spinner so shutdown is quick *)
      (match wait_terminal c with
       | Proto.Job_failed f -> Alcotest.(check string) "spinner timed out" "timeout" f.kind
       | _ -> Alcotest.fail "expected the spinner to time out");
      Client.close c)

(* --- hostile clients ------------------------------------------------- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_all fd =
  let b = Buffer.create 64 in
  let chunk = Bytes.create 4096 in
  (try
     let rec go () =
       match Unix.read fd chunk 0 4096 with
       | 0 -> ()
       | n ->
         Buffer.add_subbytes b chunk 0 n;
         go ()
     in
     go ()
   with Unix.Unix_error _ -> ());
  Buffer.contents b

let test_hostile_clients () =
  with_server (fun path _server ->
      (* (a) garbage bytes: server answers Error_frame and closes *)
      let fd = raw_connect path in
      ignore (Unix.write_substring fd "GET / HTTP/1.0\r\n\r\n" 0 18);
      let reply = read_all fd in
      (match Proto.decode_response reply with
       | Ok (Some (Proto.Error_frame m, _)) ->
         Alcotest.(check bool) "names bad magic" true
           (String.length m > 0)
       | _ -> Alcotest.fail "expected Error_frame for garbage");
      Unix.close fd;
      (* (b) oversized announcement: rejected from the header alone *)
      let fd = raw_connect path in
      let hdr = Bytes.of_string (Proto.encode_request Proto.Quit) in
      Bytes.set hdr 4 '\x7f';
      ignore (Unix.write fd hdr 0 (Bytes.length hdr));
      (match Proto.decode_response (read_all fd) with
       | Ok (Some (Proto.Error_frame _, _)) -> ()
       | _ -> Alcotest.fail "expected Error_frame for oversized");
      Unix.close fd;
      (* (c) slowloris: half a frame, then silence, then disconnect —
         must not block the loop or leak a job *)
      let fd = raw_connect path in
      let frame = Proto.encode_request (Proto.Submit (exit_spec ())) in
      ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
      (* (d) while the half-frame hangs, a well-behaved client is served *)
      let c = Client.connect ~client:"healthy" path in
      (match Client.submit c (exit_spec ()) with
       | Ok _ -> (
         match wait_terminal c with
         | Proto.Finished _ -> ()
         | _ -> Alcotest.fail "healthy client's job failed")
       | Error m -> Alcotest.fail ("healthy client rejected: " ^ m));
      Unix.close fd;
      (* (e) disconnect mid-job: submit, vanish before the result *)
      let fd = raw_connect path in
      let hello = Proto.encode_request (Proto.Hello { client = "rude" }) in
      ignore (Unix.write_substring fd hello 0 (String.length hello));
      let submit = Proto.encode_request (Proto.Submit (exit_spec ~tag:"orphan" ())) in
      ignore (Unix.write_substring fd submit 0 (String.length submit));
      Unix.close fd;
      (* the orphan must be admitted, complete server-side, and the
         server keep serving; poll for both to dodge the admission race *)
      let rec wait_for_drain tries =
        if tries = 0 then Alcotest.fail "orphan job never admitted + completed"
        else
          let get = Counter_views.family (Client.stats_full c) in
          if get "ptaintd_jobs_submitted_total" >= 2 && get "ptaintd_queue_depth" = 0
          then ()
          else begin
            Unix.sleepf 0.05;
            wait_for_drain (tries - 1)
          end
      in
      wait_for_drain 100;
      (match Client.submit c (exit_spec ()) with
       | Ok _ -> (
         match wait_terminal c with
         | Proto.Finished _ -> ()
         | _ -> Alcotest.fail "server stopped serving after hostile clients")
       | Error m -> Alcotest.fail ("server rejects after hostile clients: " ^ m));
      Client.close c)

(* --- idempotency ------------------------------------------------------- *)

(* The client-retry story end to end: a keyed job whose submitter's
   connection dies mid-run is resubmitted from a fresh connection,
   attaches to the live admission (same job id, no second run), and
   the retry receives the one and only terminal event. *)
let test_idempotent_resubmit_after_drop () =
  with_server (fun path _server ->
      let keyed_spin =
        Proto.job_spec ~tag:"spin" ~timeout:0.5 ~max_instructions:max_int
          ~idem:"retry-key-1" (Proto.Wire_asm spin_asm)
      in
      let c1 = Client.connect ~client:"dropper" path in
      let id1 =
        match Client.submit c1 keyed_spin with
        | Ok id -> id
        | Error m -> Alcotest.fail ("first submission rejected: " ^ m)
      in
      (* connection dies while the job is still spinning *)
      Client.close c1;
      let c2 = Client.connect ~client:"retrier" path in
      (match Client.submit c2 keyed_spin with
       | Ok id2 -> Alcotest.(check int) "retry attaches to the admission" id1 id2
       | Error m -> Alcotest.fail ("resubmission rejected: " ^ m));
      (match wait_terminal c2 with
       | Proto.Job_failed f ->
         Alcotest.(check int) "terminal event has the original id" id1 f.id;
         Alcotest.(check string) "watchdog classified" "timeout" f.kind
       | _ -> Alcotest.fail "expected the spinner's timeout");
      let get = Counter_views.family (Client.stats_full c2) in
      Alcotest.(check int) "the job ran exactly once" 1 (get "ptaintd_jobs_submitted_total");
      Alcotest.(check int) "and completed exactly once" 1 (get "ptaintd_jobs_total");
      (* replay-after-done: a key whose job already finished answers
         from the record — same id, a verbatim terminal event, and
         still only one run in the counters *)
      let keyed_exit =
        Proto.job_spec ~tag:"once" ~idem:"retry-key-2" (Proto.Wire_asm exit_asm)
      in
      let id3 =
        match Client.submit c2 keyed_exit with
        | Ok id -> id
        | Error m -> Alcotest.fail ("keyed exit rejected: " ^ m)
      in
      let first_id, first_outcome, first_counters =
        match wait_terminal c2 with
        | Proto.Finished f -> (f.id, f.outcome, f.counters)
        | _ -> Alcotest.fail "expected Finished"
      in
      (match Client.submit c2 keyed_exit with
       | Ok id -> Alcotest.(check int) "replay returns the original id" id3 id
       | Error m -> Alcotest.fail ("replay rejected: " ^ m));
      (match wait_terminal c2 with
       | Proto.Finished f ->
         Alcotest.(check int) "replayed event id" first_id f.id;
         Alcotest.(check bool) "replayed event verbatim" true
           (f.counters = first_counters && f.outcome = first_outcome)
       | _ -> Alcotest.fail "expected the replayed Finished");
      let get = Counter_views.family (Client.stats_full c2) in
      Alcotest.(check int) "replay admitted nothing" 2 (get "ptaintd_jobs_submitted_total");
      Alcotest.(check int) "replays counted" 2 (get "ptaintd_idem_replays_total");
      Client.close c2)

(* graceful drain: submissions in flight at shutdown still complete *)
let test_graceful_drain () =
  with_server (fun path server ->
      let c = Client.connect ~client:"test" path in
      let accepted =
        List.filter_map
          (fun i ->
            match Client.submit c (exit_spec ~tag:(string_of_int i) ()) with
            | Ok id -> Some id
            | Error _ -> None)
          [ 1; 2; 3; 4; 5; 6 ]
      in
      Server.shutdown server;
      (* all accepted jobs must still reach a terminal event *)
      let finished = ref 0 in
      (try
         while !finished < List.length accepted do
           match Client.next_event c with
           | Proto.Finished _ | Proto.Job_failed _ -> incr finished
           | Proto.Started _ -> ()
         done
       with Client.Protocol_error _ -> ());
      Alcotest.(check int) "every admitted job drained" (List.length accepted) !finished;
      Client.close c)

(* --- arena boots -------------------------------------------------- *)

(* Daemon workers boot every job through their arena; see
   {!Arena_jobs} for the claim and the reference runs. *)
let test_arena_differential () =
  with_server ~domains:1 ~max_inflight:64 (fun path _server ->
      Arena_jobs.check (Arena_jobs.submit path))

(* --- the scrape's counts ---------------------------------------------- *)

(* The scrape after mixed traffic; see {!Counter_views}.  The isolated
   backend runs the same case in test_supervisor. *)
let test_counter_views () =
  with_server ~domains:1 ~max_inflight:1 (fun path _server -> Counter_views.check path)

let () =
  Alcotest.run "daemon"
    [ ( "codec",
        [ Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "two frames" `Quick test_two_frames;
          Alcotest.test_case "incomplete prefixes" `Quick test_incomplete_is_not_an_error;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "bad tag" `Quick test_bad_tag;
          Alcotest.test_case "oversized" `Quick test_oversized;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "unknown fault tag" `Quick test_unknown_fault_tag;
          Alcotest.test_case "non-canonical bytes" `Quick test_non_canonical;
          Alcotest.test_case "microsecond round trip" `Quick test_us_round_trip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |]) prop_requests;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) prop_responses ] );
      ( "compat",
        [ Alcotest.test_case "version sweep" `Quick test_version_sweep;
          Alcotest.test_case "future version rejected" `Quick test_future_version_rejected;
          Alcotest.test_case "retired tags" `Quick test_retired_tags;
          Alcotest.test_case "idem round-trip" `Quick test_idem_roundtrip;
          Alcotest.test_case "v4 alert pc" `Quick test_v4_alert_pc ] );
      ( "stream",
        [ Alcotest.test_case "requests in random splits" `Quick test_stream_requests;
          Alcotest.test_case "responses in random splits" `Quick test_stream_responses;
          Alcotest.test_case "outbox bytes" `Quick test_outbox_bytes;
          Alcotest.test_case "oversized header" `Quick test_stream_oversized;
          Alcotest.test_case "compaction after a burst" `Quick test_stream_compaction;
          Alcotest.test_case "errors stick" `Quick test_stream_error_sticks ] );
      ( "job-spec",
        [ Alcotest.test_case "spec to Job.t" `Quick test_job_of_spec;
          Alcotest.test_case "trace round-trip" `Quick test_job_trace_roundtrip;
          Alcotest.test_case "bad policy label" `Quick test_job_of_spec_bad_policy ] );
      ( "loopback",
        [ Alcotest.test_case "submit and stream" `Quick test_loopback_submit_stream;
          Alcotest.test_case "batch with failures" `Quick test_loopback_batch_and_failures;
          Alcotest.test_case "trace round-trip" `Quick test_loopback_trace_roundtrip;
          Alcotest.test_case "stats-full scrape" `Quick test_loopback_stats_full;
          Alcotest.test_case "scrape series stable across connections" `Quick
            test_scrape_series_stable;
          Alcotest.test_case "cache eviction counters" `Quick test_loopback_cache_eviction;
          Alcotest.test_case "two clients" `Quick test_loopback_two_clients;
          Alcotest.test_case "admission quota" `Quick test_admission_quota;
          Alcotest.test_case "arena boots match local runs" `Quick test_arena_differential;
          Alcotest.test_case "scrape counts after mixed traffic" `Quick test_counter_views ] );
      ( "robustness",
        [ Alcotest.test_case "idempotent resubmit after drop" `Quick
            test_idempotent_resubmit_after_drop ] );
      ( "hostile",
        [ Alcotest.test_case "garbage, oversize, slowloris, vanish" `Quick test_hostile_clients;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain ] ) ]
