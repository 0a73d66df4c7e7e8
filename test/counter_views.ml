(* The daemon's counts as its one telemetry view serves them, shared
   by the in-process and the isolated daemon tests.  After one fixed
   mix of traffic — finished jobs, a repeated program, a spinning job
   timed out twice, a quota rejection and a garbled frame — the
   Prometheus scrape must show the same counts on either backend, and
   cache hits plus misses must equal completed jobs: a job is a cache
   hit only if it finished from a cached image. *)

module Proto = Ptaint_daemon.Proto
module Client = Ptaint_daemon.Client

let exit_spec i =
  Proto.job_spec ~tag:(Printf.sprintf "exit-%d" i)
    (Proto.Wire_asm (Printf.sprintf ".text\nmain: li $v0, 1\n li $a0, %d\n syscall\n" i))

let spin_spec =
  Proto.job_spec ~tag:"spin" ~timeout:0.1 ~max_instructions:max_int
    (Proto.Wire_asm ".text\nmain: j main\n")

(* The sum of every sample of family [name] in a Prometheus text
   exposition, failing the test if it has none.  Completed jobs, for
   one, are the ptaintd_jobs_total family summed over its outcome
   children. *)
let family text name =
  let add acc line =
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
        Some (v + Option.value ~default:0 acc)
  in
  match List.fold_left add None (String.split_on_char '\n' text) with
  | Some v -> v
  | None -> Alcotest.failf "no %s series in the scrape" name

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
   ([--max-inflight 1], one worker) and check the scrape. *)
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
  let text = Client.stats_full c in
  Client.close c;
  let get = family text in
  Alcotest.(check int) "cache hits + misses = ptaintd_jobs_total"
    (get "ptaintd_jobs_total")
    (get "ptaintd_cache_hits" + get "ptaintd_cache_misses");
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (get name))
    [ ("ptaintd_cache_hits", 1); ("ptaintd_cache_misses", 4); ("ptaintd_jobs_total", 5);
      ("ptaintd_jobs_submitted_total", 5); ("ptaintd_jobs_rejected_total", 1);
      ("ptaintd_protocol_errors_total", 1); ("ptaintd_queue_depth", 0);
      ("ptaintd_clients_connected", 1); ("ptaintd_clients_total", 2);
      ("ptaintd_workers", 1) ]
