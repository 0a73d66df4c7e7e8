(* The daemon's two counter views, shared by the in-process and the
   isolated daemon tests.  [Stats] serves the daemon/* keys and
   [Stats_full] the Prometheus exposition of the same registry.  After
   one fixed mix of traffic — finished jobs, a repeated program, a
   spinning job timed out twice, a quota rejection and a garbled frame
   — each key must equal its series, cache hits plus misses must equal
   completed jobs, and the counts are the same on either backend: a
   job is a cache hit only if it finished from a cached image. *)

module Proto = Ptaint_daemon.Proto
module Client = Ptaint_daemon.Client

let exit_spec i =
  Proto.job_spec ~tag:(Printf.sprintf "exit-%d" i)
    (Proto.Wire_asm (Printf.sprintf ".text\nmain: li $v0, 1\n li $a0, %d\n syscall\n" i))

let spin_spec =
  Proto.job_spec ~tag:"spin" ~timeout:0.1 ~max_instructions:max_int
    (Proto.Wire_asm ".text\nmain: j main\n")

(* Each Stats key and the Prometheus series it is served under.
   Completed jobs are the ptaintd_jobs_total family summed over its
   outcome children. *)
let series =
  [ ("daemon/cache-hit", "ptaintd_cache_hits");
    ("daemon/cache-miss", "ptaintd_cache_misses");
    ("daemon/cache-evictions", "ptaintd_cache_evictions");
    ("daemon/cache-entries", "ptaintd_cache_entries");
    ("daemon/cache-capacity", "ptaintd_cache_capacity");
    ("daemon/jobs-submitted", "ptaintd_jobs_submitted_total");
    ("daemon/jobs-completed", "ptaintd_jobs_total");
    ("daemon/jobs-rejected", "ptaintd_jobs_rejected_total");
    ("daemon/jobs-inflight", "ptaintd_queue_depth");
    ("daemon/protocol-errors", "ptaintd_protocol_errors_total");
    ("daemon/clients-now", "ptaintd_clients_connected");
    ("daemon/clients-total", "ptaintd_clients_total");
    ("daemon/workers", "ptaintd_workers") ]

(* The sum of every sample of family [name], or [None] if it has none. *)
let family_total text name =
  List.fold_left
    (fun acc line ->
      if line = "" || line.[0] = '#' then acc
      else
        let stop =
          match String.index_opt line '{' with
          | Some i -> i
          | None -> String.index line ' '
        in
        if String.sub line 0 stop <> name then acc
        else
          let sp = String.rindex line ' ' + 1 in
          let v = int_of_string (String.sub line sp (String.length line - sp)) in
          Some (v + Option.value ~default:0 acc))
    None
    (String.split_on_char '\n' text)

let send_garbage path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  ignore (Unix.write_substring fd "GET / HTTP/1.0\r\n\r\n" 0 18);
  (* the daemon answers with an error frame and hangs up *)
  let buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  Unix.close fd

(* Drive the traffic against a daemon that admits one job per client
   ([--max-inflight 1], one worker) and check both views. *)
let check path =
  let c = Client.connect ~client:"views" path in
  let rec terminal () =
    match Client.next_event c with
    | Proto.Started _ -> terminal ()
    | ev -> ev
  in
  let run (spec : Proto.job_spec) =
    match Client.submit c spec with
    | Error m -> Alcotest.failf "%s rejected: %s" spec.Proto.spec_tag m
    | Ok _ -> terminal ()
  in
  let cache_hit spec =
    match run spec with
    | Proto.Finished f -> f.cache_hit
    | _ -> Alcotest.failf "%s did not finish" spec.Proto.spec_tag
  in
  Alcotest.(check bool) "first run misses" false (cache_hit (exit_spec 0));
  Alcotest.(check bool) "repeated program hits" true (cache_hit (exit_spec 0));
  Alcotest.(check bool) "another program misses" false (cache_hit (exit_spec 1));
  let timed_out = function
    | Proto.Job_failed f -> Alcotest.(check string) "spinner timed out" "timeout" f.kind
    | _ -> Alcotest.fail "expected the spinner to time out"
  in
  (match Client.submit c spin_spec with
   | Error m -> Alcotest.fail ("spinner rejected: " ^ m)
   | Ok _ ->
     (match Client.submit c (exit_spec 2) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "quota not enforced");
     timed_out (terminal ()));
  (* the second spinner boots from the cached image, but fails *)
  timed_out (run spin_spec);
  send_garbage path;
  let stats = Client.stats c in
  let text = Client.stats_full c in
  Alcotest.(check (list (pair string int))) "Stats unchanged by the scrape" stats
    (Client.stats c);
  Client.close c;
  List.iter
    (fun (key, v) ->
      match List.assoc_opt key series with
      | None -> Alcotest.failf "%s has no Prometheus series" key
      | Some name -> (
        match family_total text name with
        | None -> Alcotest.failf "%s: no %s series in the scrape" key name
        | Some total -> Alcotest.(check int) (key ^ " = " ^ name) v total))
    stats;
  let get k =
    match List.assoc_opt k stats with
    | Some v -> v
    | None -> Alcotest.failf "Stats has no %s" k
  in
  Alcotest.(check int) "cache-hit + cache-miss = jobs-completed"
    (get "daemon/jobs-completed")
    (get "daemon/cache-hit" + get "daemon/cache-miss");
  List.iter
    (fun (k, v) -> Alcotest.(check int) k v (get k))
    [ ("daemon/cache-hit", 1); ("daemon/cache-miss", 4); ("daemon/jobs-completed", 5);
      ("daemon/jobs-submitted", 5); ("daemon/jobs-rejected", 1);
      ("daemon/protocol-errors", 1); ("daemon/jobs-inflight", 0);
      ("daemon/clients-now", 1); ("daemon/clients-total", 2); ("daemon/workers", 1) ]
