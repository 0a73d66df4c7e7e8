(* The observability layer: ring buffer, event recorder, metrics registry,
   Chrome exporter, and the campaign-level wiring. *)

open Ptaint_obs

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

(* --- ring ----------------------------------------------------------- *)

let test_ring_partial () =
  let r = Ring.create ~dummy:"-" 4 in
  Ring.push r 1 "a";
  Ring.push r 2 "b";
  Alcotest.(check int) "length" 2 (Ring.length r);
  Alcotest.(check (list (pair int string))) "order" [ (1, "a"); (2, "b") ] (Ring.to_list r)

let test_ring_wrap () =
  let r = Ring.create ~dummy:0 3 in
  List.iter (fun i -> Ring.push r i i) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "full" 3 (Ring.length r);
  Alcotest.(check (list (pair int int))) "last three, oldest first"
    [ (3, 3); (4, 4); (5, 5) ] (Ring.to_list r)

(* --- trace ---------------------------------------------------------- *)

let ev c = Event.Restore { cycle = c }

let test_trace_limit () =
  let t = Trace.create ~limit:3 () in
  List.iter (fun c -> Trace.emit t (ev c)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "recorder bounded" 3 (Trace.length t);
  Alcotest.(check int) "overflow counted" 2 (Trace.dropped t);
  Alcotest.(check (list int)) "keeps the first events" [ 1; 2; 3 ]
    (List.map Event.cycle (Trace.events t))

(* --- metrics -------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "jobs" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  (* get-or-create: same underlying counter *)
  Metrics.inc (Metrics.counter m "jobs");
  (match Metrics.rows m with
   | [ r ] ->
     Alcotest.(check string) "name" "jobs" r.Metrics.name;
     Alcotest.(check string) "kind" "counter" r.Metrics.kind;
     Alcotest.(check int) "count" 6 r.Metrics.count
   | _ -> Alcotest.fail "expected one row");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.histogram: jobs is not a histogram")
    (fun () -> ignore (Metrics.histogram m "jobs"))

let test_metrics_histogram () =
  let a = Metrics.create () in
  let h = Metrics.histogram a "wall ms" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 8.0; 4.0 ];
  match Metrics.rows a with
  | [ r ] ->
    Alcotest.(check int) "count" 4 r.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 16.0 r.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 1.0 r.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 8.0 r.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" 4.0 r.Metrics.mean
  | _ -> Alcotest.fail "expected one histogram row"

(* --- structured log ------------------------------------------------- *)

let test_log_logfmt_render () =
  let line =
    Log.render Log.Logfmt ~ts:0.5 ~level:Log.Info ~src:"daemon" ~msg:"job finished"
      [ Log.str "tag" "a b"; Log.int "n" 3; Log.bool "hit" true;
        Log.str "odd" "say \"hi\"\n"; Log.float "ms" 1.5 ]
  in
  Alcotest.(check string) "logfmt line"
    "ts=1970-01-01T00:00:00.500Z level=info src=daemon msg=\"job finished\" \
     tag=\"a b\" n=3 hit=true odd=\"say \\\"hi\\\"\\n\" ms=1.5"
    line;
  (* bare values stay unquoted; keys are sanitized *)
  let bare =
    Log.render Log.Logfmt ~ts:0.0 ~level:Log.Warn ~src:"x" ~msg:"m"
      [ Log.str "weird key" "v" ]
  in
  Alcotest.(check bool) "key sanitized" true (contains bare "weird_key=v")

let test_log_json_render () =
  let line =
    Log.render Log.Json ~ts:0.0 ~level:Log.Error ~src:"campaign" ~msg:"job failed"
      [ Log.str "kind" "time\"out\""; Log.int "index" 7 ]
  in
  Alcotest.(check string) "json line"
    "{\"ts\":\"1970-01-01T00:00:00.000Z\",\"level\":\"error\",\"src\":\"campaign\",\
     \"msg\":\"job failed\",\"kind\":\"time\\\"out\\\"\",\"index\":7}"
    line;
  (* control characters become \u escapes *)
  let ctl =
    Log.render Log.Json ~ts:0.0 ~level:Log.Info ~src:"s" ~msg:"m"
      [ Log.str "c" "a\x01b" ]
  in
  Alcotest.(check bool) "control escaped" true (contains ctl "a\\u0001b")

let test_log_level_filtering () =
  let b = Buffer.create 256 in
  let l = Log.create ~level:Log.Warn (Log.buffer_sink b) in
  Log.debug l ~src:"a" "dropped" [];
  Log.info l ~src:"a" "dropped too" [];
  Log.warn l ~src:"a" "kept-warn" [];
  Log.error l ~src:"a" "kept-error" [];
  Alcotest.(check bool) "enabled warn" true (Log.enabled l Log.Warn);
  Alcotest.(check bool) "disabled info" false (Log.enabled l Log.Info);
  Log.close l;
  let out = Buffer.contents b in
  Alcotest.(check bool) "warn kept" true (contains out "kept-warn");
  Alcotest.(check bool) "error kept" true (contains out "kept-error");
  Alcotest.(check bool) "debug dropped" false (contains out "dropped");
  Alcotest.(check int) "exactly two lines" 2
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 out)

let test_log_rotation () =
  let dir = Filename.temp_file "ptaint-log" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "svc.log" in
  let l = Log.create ~level:Log.Info (Log.file_sink ~max_bytes:160 path) in
  (* each record is ~70 bytes; the third write would cross the cap and
     must land in a fresh file, with the first two rotated to .1 *)
  for i = 1 to 3 do
    Log.info l ~src:"rot" (Printf.sprintf "record-%d" i) []
  done;
  Log.close l;
  let read f =
    let ic = open_in_bin f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic; s
  in
  let live = read path and old = read (path ^ ".1") in
  Alcotest.(check bool) "third record in live file" true (contains live "record-3");
  Alcotest.(check bool) "live file fresh" false (contains live "record-1");
  Alcotest.(check bool) "rotation keeps older records" true
    (contains old "record-1" && contains old "record-2");
  Sys.remove path; Sys.remove (path ^ ".1"); Unix.rmdir dir

let test_log_hex_id () =
  Alcotest.(check string) "fixed width" "00000000000000ff" (Log.hex_id 0xff);
  Alcotest.(check string) "wide id" "1234567812345678" (Log.hex_id 0x1234567812345678)

(* --- prometheus exposition ------------------------------------------ *)

let test_prometheus_families_and_escaping () =
  let m = Metrics.create () in
  Metrics.inc ~by:3 (Metrics.counter m ~labels:[ ("outcome", "exited") ] "jobs_total");
  Metrics.inc (Metrics.counter m ~labels:[ ("outcome", "alert") ] "jobs_total");
  Metrics.set (Metrics.gauge m "queue depth") 2.0;
  Metrics.inc (Metrics.counter m ~labels:[ ("tag", "a\"b\\c\nd") ] "weird");
  let s = Metrics.prometheus m in
  (* one TYPE header per family, children grouped beneath it *)
  Alcotest.(check bool) "family header once" true
    (contains s "# TYPE jobs_total counter"
     && not (contains s "# TYPE jobs_total counter\n# TYPE"));
  Alcotest.(check bool) "first child" true (contains s "jobs_total{outcome=\"exited\"} 3");
  Alcotest.(check bool) "second child" true (contains s "jobs_total{outcome=\"alert\"} 1");
  Alcotest.(check bool) "gauge sanitized name" true (contains s "# TYPE queue_depth gauge");
  Alcotest.(check bool) "gauge value" true (contains s "queue_depth 2");
  Alcotest.(check bool) "label value escaped" true
    (contains s "weird{tag=\"a\\\"b\\\\c\\nd\"} 1")

let test_prometheus_bucket_cumulativity () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat us" in
  List.iter (Metrics.observe h) [ 0.0; 1.0; 2.0; 100.0 ];
  let s = Metrics.prometheus m in
  Alcotest.(check bool) "histogram type" true (contains s "# TYPE lat_us histogram");
  (* buckets are cumulative over the log2 boundaries: le=0 sees the
     0.0 observation, le=1 adds 1.0, le=3 adds 2.0, le=127 adds 100.0 *)
  Alcotest.(check bool) "le=0" true (contains s "lat_us_bucket{le=\"0\"} 1\n");
  Alcotest.(check bool) "le=1" true (contains s "lat_us_bucket{le=\"1\"} 2\n");
  Alcotest.(check bool) "le=3" true (contains s "lat_us_bucket{le=\"3\"} 3\n");
  Alcotest.(check bool) "le=127" true (contains s "lat_us_bucket{le=\"127\"} 4\n");
  Alcotest.(check bool) "+Inf equals count" true
    (contains s "lat_us_bucket{le=\"+Inf\"} 4\n");
  Alcotest.(check bool) "sum" true (contains s "lat_us_sum 103\n");
  Alcotest.(check bool) "count" true (contains s "lat_us_count 4\n");
  (* cumulative counts never decrease *)
  let counts =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
         if String.length line > 14 && String.sub line 0 14 = "lat_us_bucket{" then
           String.rindex_opt line ' '
           |> Option.map (fun i ->
                int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
         else None)
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone buckets" true (monotone counts)

(* --- chrome export -------------------------------------------------- *)

(* A permissive structural check: balanced braces/brackets inside the
   traceEvents array plus the required keys — not a full JSON parser,
   but enough to catch malformed emission (CI additionally runs the
   output through python's json module). *)
let test_chrome_shape () =
  let ch = Chrome.create () in
  Chrome.complete ch ~name:"job \"quoted\"" ~cat:"job" ~tid:3 ~ts_us:0.0 ~dur_us:1500.0
    ~args:[ ("policy", "full") ] ();
  Chrome.add_events ch
    [ Event.Taint_in { cycle = 7; source = "recv(network)"; addr = 0x10000; len = 16; offset = 0 };
      Event.Alert { cycle = 9; pc = 0x400010; kind = "jump-target"; reg = "ra"; value = 0x61616161 } ];
  let s = Chrome.contents ch in
  Alcotest.(check int) "event count" 3 (Chrome.event_count ch);
  Alcotest.(check bool) "array wrapper" true (contains s "{\"traceEvents\":[");
  Alcotest.(check bool) "complete event" true (contains s "\"ph\":\"X\"");
  Alcotest.(check bool) "instant event" true (contains s "\"ph\":\"i\"");
  Alcotest.(check bool) "escaped name" true (contains s "job \\\"quoted\\\"");
  Alcotest.(check bool) "cycle as microseconds" true (contains s "\"ts\":7");
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      (match c with
       | '{' | '[' -> incr depth
       | '}' | ']' -> decr depth
       | _ -> ());
      if !depth < 0 then ok := false)
    s;
  Alcotest.(check bool) "balanced" true (!ok && !depth = 0)

(* Wall-clock spans: epoch microseconds from the two stamps, args in
   a fixed order, the trace id in the one hex spelling. *)
let test_chrome_job_span () =
  let ch = Chrome.create () in
  Chrome.job_span ch ~name:"j" ~cat:"daemon" ~pid:2 ~tid:1 ~started:1_700_000_000.5
    ~finished:1_700_000_000.75 ~outcome:"exited" ~args:[ ("cache_hit", "true") ]
    ~trace:(0xff, 3) ();
  Chrome.job_span ch ~name:"k" ~cat:"campaign" ~tid:0 ~started:2. ~finished:2. ~outcome:"alert" ();
  let s = Chrome.contents ch in
  Alcotest.(check int) "two spans" 2 (Chrome.event_count ch);
  Alcotest.(check bool) "epoch microseconds" true
    (contains s "\"ts\":1700000000500000.000,\"dur\":250000.000,\"pid\":2,\"tid\":1");
  Alcotest.(check bool) "args: outcome, extras, then the trace id" true
    (contains s
       "\"args\":{\"outcome\":\"exited\",\"cache_hit\":\"true\",\"trace\":\"00000000000000ff\",\"span\":\"3\"}");
  Alcotest.(check bool) "untraced span: outcome only, pid 1" true
    (contains s "\"pid\":1,\"tid\":0,\"args\":{\"outcome\":\"alert\"}")

(* --- machine + sim wiring ------------------------------------------ *)

let attack_source =
  {|
.text
main:
    li   $a0, 0          # fd 0 = stdin
    li   $a1, 0x10000000 # buffer in .data
    li   $a2, 8
    li   $v0, 2          # SYS_READ
    syscall
    li   $t1, 0x10000000
    lw   $t0, 0($t1)
    jr   $t0             # jump through tainted pointer -> alert
.data
buf: .word 0, 0
|}

let run_observed () =
  let program = Ptaint_asm.Assembler.assemble_exn attack_source in
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.stdin = "\x44\x33\x22\x11xyzw";
                 obs = true } in
  Ptaint_sim.Sim.run ~config program

let test_sim_event_story () =
  let r = run_observed () in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Alert _ -> ()
   | o -> Alcotest.fail (Format.asprintf "expected alert, got %a" Ptaint_sim.Sim.pp_outcome o));
  let evs = Ptaint_sim.Sim.events r in
  let has p = List.exists p evs in
  Alcotest.(check bool) "syscall event" true
    (has (function Event.Syscall { name = "read"; _ } -> true | _ -> false));
  Alcotest.(check bool) "taint introduction" true
    (has (function
       | Event.Taint_in { source = "read(stdin)"; len = 8; offset = 0; _ } -> true
       | _ -> false));
  Alcotest.(check bool) "register milestone" true
    (has (function Event.Reg_taint _ -> true | _ -> false));
  Alcotest.(check bool) "alert event" true
    (has (function Event.Alert { reg = "t0"; value = 0x11223344; _ } -> true | _ -> false));
  (* the introduction precedes the alert in emission order *)
  let rec story = function
    | Event.Taint_in _ :: rest ->
      List.exists (function Event.Alert _ -> true | _ -> false) rest
    | _ :: rest -> story rest
    | [] -> false
  in
  Alcotest.(check bool) "taint-in before alert" true (story evs);
  (* and the machine kept the instruction window, ending at the alert *)
  match List.rev (Ptaint_sim.Sim.insn_window r) with
  | (pc, _) :: _ -> Alcotest.(check bool) "window non-empty, last pc in text" true (pc > 0)
  | [] -> Alcotest.fail "no instruction window"

let test_obs_off_is_silent () =
  let program = Ptaint_asm.Assembler.assemble_exn attack_source in
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.stdin = "\x44\x33\x22\x11xyzw" } in
  let r = Ptaint_sim.Sim.run ~config program in
  Alcotest.(check (list (pair int string))) "no window" []
    (List.map (fun (pc, i) -> (pc, Ptaint_isa.Insn.to_string i))
       (Ptaint_sim.Sim.insn_window r));
  Alcotest.(check int) "no events" 0 (List.length (Ptaint_sim.Sim.events r))

(* --- campaign wiring ------------------------------------------------ *)

let test_campaign_jobs_and_metrics () =
  let program = Ptaint_asm.Assembler.assemble_exn attack_source in
  let benign = Ptaint_asm.Assembler.assemble_exn ".text\nmain: li $v0, 0\n  li $a0, 0\n  li $v0, 1\n  syscall\n" in
  let ch = Chrome.create () in
  let jobs =
    let module Job = Ptaint_campaign.Job in
    [ Job.make ~tag:"atk" ~policy_label:"full"
        ~config:{ Ptaint_sim.Sim.default_config with
                  Ptaint_sim.Sim.stdin = "\x44\x33\x22\x11xyzw" }
        (Job.Image program);
      Job.make ~tag:"ok" ~policy_label:"full" (Job.Image benign) ]
  in
  let results, stats = Ptaint_campaign.Campaign.run_jobs ~domains:2 ~trace:ch jobs in
  Alcotest.(check int) "both ran" 2 (List.length results);
  List.iter
    (fun (r : Ptaint_campaign.Campaign.job_result) ->
      let t = r.Ptaint_campaign.Campaign.timing in
      Alcotest.(check bool) "timing sane" true
        (t.Ptaint_campaign.Campaign.finished >= t.Ptaint_campaign.Campaign.started
         && t.Ptaint_campaign.Campaign.domain >= 0))
    results;
  (* one span per job, in submission order, from the job's own stamps *)
  let lines = String.split_on_char '\n' (Chrome.contents ch) in
  let spans = List.filter (fun l -> contains l "\"ph\":\"X\"") lines in
  Alcotest.(check int) "one span per job" 2 (List.length spans);
  List.iter2
    (fun l (name, outcome) ->
      Alcotest.(check bool) ("span name " ^ name) true (contains l ("\"name\":\"" ^ name ^ "\""));
      Alcotest.(check bool) ("outcome arg " ^ name) true
        (contains l ("\"outcome\":\"" ^ outcome ^ "\""));
      Alcotest.(check bool) ("policy arg " ^ name) true (contains l "\"policy\":\"full\"");
      Alcotest.(check bool) ("campaign category " ^ name) true
        (contains l "\"cat\":\"campaign\""))
    spans
    [ ("atk", "alert"); ("ok", "exited") ];
  let r0 = List.hd results in
  let ts = Printf.sprintf "\"ts\":%.3f" (r0.Ptaint_campaign.Campaign.timing.started *. 1e6) in
  Alcotest.(check bool) "epoch-microsecond start" true (contains (List.hd spans) ts);
  (* per-label metrics *)
  (match stats.Ptaint_campaign.Campaign.metrics with
   | [ ("full", m) ] ->
     let row name =
       match List.find_opt (fun r -> r.Metrics.name = name) (Metrics.rows m) with
       | Some r -> r
       | None -> Alcotest.fail ("missing metric " ^ name)
     in
     Alcotest.(check int) "jobs counter" 2 (row "jobs").Metrics.count;
     Alcotest.(check int) "alerts counter" 1 (row "alerts").Metrics.count;
     Alcotest.(check bool) "instructions counted" true ((row "instructions").Metrics.count > 0);
     Alcotest.(check int) "wall histogram count" 2 (row "job wall ms").Metrics.count
   | l -> Alcotest.fail (Printf.sprintf "expected one label, got %d" (List.length l)));
  (* the rendered table is deterministic: counters only by default *)
  let table = Ptaint_campaign.Campaign.metrics_table stats in
  Alcotest.(check bool) "counters present" true (contains table "alerts");
  Alcotest.(check bool) "no timing rows by default" true (not (contains table "job wall ms"));
  let full = Ptaint_campaign.Campaign.metrics_table ~timings:true stats in
  Alcotest.(check bool) "timing rows on demand" true (contains full "job wall ms")

let () =
  Alcotest.run "obs"
    [ ( "ring",
        [ Alcotest.test_case "partial fill" `Quick test_ring_partial;
          Alcotest.test_case "wrap" `Quick test_ring_wrap ] );
      ( "trace",
        [ Alcotest.test_case "bounded recorder" `Quick test_trace_limit ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram ] );
      ( "log",
        [ Alcotest.test_case "logfmt rendering" `Quick test_log_logfmt_render;
          Alcotest.test_case "json rendering" `Quick test_log_json_render;
          Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "size rotation" `Quick test_log_rotation;
          Alcotest.test_case "hex ids" `Quick test_log_hex_id ] );
      ( "prometheus",
        [ Alcotest.test_case "families + escaping" `Quick test_prometheus_families_and_escaping;
          Alcotest.test_case "bucket cumulativity" `Quick test_prometheus_bucket_cumulativity ] );
      ( "chrome",
        [ Alcotest.test_case "json shape" `Quick test_chrome_shape;
          Alcotest.test_case "job span" `Quick test_chrome_job_span ] );
      ( "sim",
        [ Alcotest.test_case "event story" `Quick test_sim_event_story;
          Alcotest.test_case "off by default" `Quick test_obs_off_is_silent ] );
      ( "campaign",
        [ Alcotest.test_case "job spans + metrics" `Quick test_campaign_jobs_and_metrics ] ) ]
