(* The multicore campaign engine: parallel execution must be
   observationally identical to the sequential reference run
   (determinism), a crashing job must not take down the batch (fault
   isolation), and results must come back in submission order
   regardless of scheduling. *)

open Ptaint_attacks
module Campaign = Ptaint_campaign.Campaign
module Job = Ptaint_campaign.Job
module Checkpoint = Ptaint_campaign.Checkpoint

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Every job here is a {!Job.t}; [image] wraps a built program.  A
   harness crash is an [on_step] hook that raises — it runs on the
   worker, inside the containment net, like any other failure. *)
let image ?(config = Ptaint_sim.Sim.Config.default) ?policy_label name program =
  Job.make ~tag:name ~config ?policy_label (Job.Image program)

let raising ?(config = Ptaint_sim.Sim.Config.default) f =
  Ptaint_sim.Sim.Config.with_on_step (fun _ _ -> f ()) config

(* --- determinism: the full coverage matrix, 1 domain vs many --- *)

let coverage_jobs () =
  List.concat_map
    (fun (s : Scenario.t) ->
      let program = s.Scenario.build () in
      List.concat_map
        (fun (c : Scenario.case) ->
          List.map
            (fun (pname, policy) ->
              image
                (Printf.sprintf "%s/%s/%s" s.Scenario.name c.Scenario.case_name pname)
                ~policy_label:pname
                ~config:{ (c.Scenario.config program) with Ptaint_sim.Sim.policy }
                program)
            Scenario.coverage_policies)
        (s.Scenario.cases))
    Catalog.all

let fingerprint (r : Campaign.job_result) =
  match r.Campaign.status with
  | Campaign.Finished res ->
    Printf.sprintf "%s | %s | out:%s | net:%s | %d insns | %d sys | uid %d"
      r.Campaign.name
      (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome res.Ptaint_sim.Sim.outcome)
      (String.escaped res.Ptaint_sim.Sim.stdout)
      (String.escaped (String.concat "&" res.Ptaint_sim.Sim.net_sent))
      res.Ptaint_sim.Sim.instructions res.Ptaint_sim.Sim.syscalls
      res.Ptaint_sim.Sim.final_uid
  | Campaign.Failed f ->
    Printf.sprintf "%s | FAILED (%s) %s" r.Campaign.name (Campaign.kind_name f.Campaign.kind)
      f.Campaign.exn

let test_determinism () =
  let jobs = coverage_jobs () in
  let sequential, seq_stats = Campaign.run_jobs ~domains:1 jobs in
  let parallel, par_stats = Campaign.run_jobs ~domains:4 jobs in
  Alcotest.(check (list string))
    "parallel results identical to the sequential reference"
    (List.map fingerprint sequential)
    (List.map fingerprint parallel);
  Alcotest.(check int) "same instruction totals" seq_stats.Campaign.instructions
    par_stats.Campaign.instructions;
  Alcotest.(check int) "same syscall totals" seq_stats.Campaign.syscalls
    par_stats.Campaign.syscalls;
  Alcotest.(check (list (pair string int)))
    "same per-policy detection counts" seq_stats.Campaign.detections
    par_stats.Campaign.detections;
  (* sanity: pointer taintedness detects every attack case in the matrix *)
  let pt_detections = List.assoc "pointer taintedness" par_stats.Campaign.detections in
  Alcotest.(check int) "PT detects all attacks" (List.length Catalog.all) pt_detections

(* --- fault isolation: a crashing job is contained --- *)

let test_fault_isolation () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let benign =
    match Scenario.benign Catalog.exp1_stack_smash with
    | Some c -> c
    | None -> Alcotest.fail "exp1 should have a benign case"
  in
  let ok name = image name ~config:(benign.Scenario.config program) program in
  let boom =
    image "boom" ~config:(raising (fun () -> raise (Failure "guest exploded"))) program
  in
  let results, stats = Campaign.run_jobs ~domains:3 [ ok "before"; boom; ok "after" ] in
  (match results with
   | [ before; crashed; after ] ->
     (match before.Campaign.status, after.Campaign.status with
      | Campaign.Finished _, Campaign.Finished _ -> ()
      | _ -> Alcotest.fail "jobs around the crash must still finish");
     (match crashed.Campaign.status with
      | Campaign.Failed f ->
        Alcotest.(check bool) "failure message preserved" true
          (contains f.Campaign.exn "guest exploded");
        Alcotest.(check string) "classified as a crash" "crashed"
          (Campaign.kind_name f.Campaign.kind)
      | _ -> Alcotest.fail "raising job must be reported as Failed")
   | _ -> Alcotest.fail "expected three results");
  Alcotest.(check int) "one failure counted" 1 stats.Campaign.failed;
  Alcotest.(check int) "all jobs accounted for" 3 stats.Campaign.jobs;
  (* result_exn surfaces the failure as an exception *)
  match List.nth results 1 |> Campaign.result_exn with
  | _ -> Alcotest.fail "result_exn on a crashed job must raise"
  | exception Invalid_argument _ -> ()

(* --- failure taxonomy: each failure kind is typed, not string-matched --- *)

let test_retry_transient () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let benign =
    match Scenario.benign Catalog.exp1_stack_smash with
    | Some c -> c
    | None -> Alcotest.fail "exp1 should have a benign case"
  in
  let config = benign.Scenario.config program in
  let tries = Atomic.make 0 in
  let flaky =
    image "flaky" program
      ~config:
        (raising ~config (fun () ->
             if Atomic.fetch_and_add tries 1 = 0 then failwith "transient glitch"))
  in
  let results, stats = Campaign.run_jobs ~domains:2 ~retries:2 ~backoff:0.001 [ flaky ] in
  (match results with
   | [ r ] ->
     (match r.Campaign.status with
      | Campaign.Finished _ -> ()
      | Campaign.Failed f ->
        Alcotest.fail ("flaky job should succeed on retry, failed: " ^ f.Campaign.exn));
     Alcotest.(check int) "second attempt succeeded" 2 r.Campaign.attempts
   | _ -> Alcotest.fail "expected one result");
  Alcotest.(check int) "no failure recorded after successful retry" 0 stats.Campaign.failed;
  (* deterministic failure kinds are never retried *)
  let spin = Ptaint_asm.Assembler.assemble_exn ".text\nmain: j main\n" in
  let cfg = Ptaint_sim.Sim.Config.(default |> with_max_instructions 1_000_000_000) in
  let results, _ =
    Campaign.run_jobs ~domains:1 ~job_timeout:0.2 ~retries:3 ~backoff:0.001
      [ image "spin" ~config:cfg spin ]
  in
  match results with
  | [ r ] -> (
    Alcotest.(check int) "timeout not retried" 1 r.Campaign.attempts;
    match r.Campaign.status with
    | Campaign.Failed f ->
      Alcotest.(check string) "classified as timeout" "timeout"
        (Campaign.kind_name f.Campaign.kind)
    | Campaign.Finished _ -> Alcotest.fail "spinning guest must time out")
  | _ -> Alcotest.fail "expected one result"

let test_worker_backtrace () =
  let program =
    Ptaint_asm.Assembler.assemble_exn ".text\nmain: li $v0, 1\n li $a0, 0\n syscall\n"
  in
  let boom = image "boom" ~config:(raising (fun () -> failwith "kaboom")) program in
  let results, _ = Campaign.run_jobs ~domains:2 ~retries:1 ~backoff:0.001 [ boom ] in
  match results with
  | [ r ] -> (
    (match r.Campaign.status with
     | Campaign.Failed f ->
       Alcotest.(check bool) "worker backtrace captured" true
         (contains f.Campaign.backtrace "Raised")
     | Campaign.Finished _ -> Alcotest.fail "boom must fail");
    Alcotest.(check int) "crash retried once" 2 r.Campaign.attempts;
    match Campaign.result_exn r with
    | _ -> Alcotest.fail "result_exn on a failed job must raise"
    | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the kind" true (contains msg "crashed");
      Alcotest.(check bool) "message counts attempts" true (contains msg "2 attempt");
      Alcotest.(check bool) "message carries the worker frames" true
        (contains msg "Raised"))
  | _ -> Alcotest.fail "expected one result"

let test_guest_fault_classified () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let benign =
    match Scenario.benign Catalog.exp1_stack_smash with
    | Some c -> c
    | None -> Alcotest.fail "exp1 should have a benign case"
  in
  let bad = Ptaint_asm.Assembler.assemble_exn ".text\nmain: li $v0, 999\n      syscall\n" in
  let jobs =
    [ image "healthy" ~config:(benign.Scenario.config program) program;
      image "bad-syscall" bad;
      image "healthy-2" ~config:(benign.Scenario.config program) program ]
  in
  let results, stats = Campaign.run_jobs ~domains:3 jobs in
  (match results with
   | [ h1; badr; h2 ] ->
     (match (h1.Campaign.status, h2.Campaign.status) with
      | Campaign.Finished _, Campaign.Finished _ -> ()
      | _ -> Alcotest.fail "neighbours of the faulting guest must finish");
     (match badr.Campaign.status with
      | Campaign.Failed { kind = Campaign.Guest_fault { sysnum; _ }; _ } ->
        Alcotest.(check int) "faulting syscall number" 999 sysnum
      | _ -> Alcotest.fail "unknown syscall must classify as Guest_fault")
   | _ -> Alcotest.fail "expected three results");
  Alcotest.(check int) "one failure" 1 stats.Campaign.failed

let test_loader_error_classified () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let huge_argv = Ptaint_sim.Sim.Config.(default |> with_argv [ "prog"; String.make 2_000_000 'A' ]) in
  let jobs =
    [ image "oversized-argv" ~config:huge_argv program;
      Job.make ~tag:"bad-asm" (Job.Asm_source ".data\nx: .space -4\n") ]
  in
  let results, _ = Campaign.run_jobs ~domains:2 jobs in
  match results with
  | [ argv_r; asm_r ] ->
    (match argv_r.Campaign.status with
     | Campaign.Failed { kind = Campaign.Loader_error { where; _ }; _ } ->
       Alcotest.(check string) "argv validation failed" "arguments" where
     | _ -> Alcotest.fail "oversized argv must classify as Loader_error");
    (match asm_r.Campaign.status with
     | Campaign.Failed { kind = Campaign.Loader_error { where; _ }; _ } ->
       Alcotest.(check bool) "assembler error carries the line" true
         (contains where "line")
     | _ -> Alcotest.fail "malformed assembly must classify as Loader_error")
  | _ -> Alcotest.fail "expected two results"

let test_watchdog_in_batch () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let benign =
    match Scenario.benign Catalog.exp1_stack_smash with
    | Some c -> c
    | None -> Alcotest.fail "exp1 should have a benign case"
  in
  let spin = Ptaint_asm.Assembler.assemble_exn ".text\nmain: j main\n" in
  let spin_cfg = Ptaint_sim.Sim.Config.(default |> with_max_instructions 1_000_000_000) in
  let jobs =
    [ image "healthy" ~config:(benign.Scenario.config program) program;
      image "spin" ~config:spin_cfg spin;
      image "healthy-2" ~config:(benign.Scenario.config program) program ]
  in
  let results, stats = Campaign.run_jobs ~domains:2 ~job_timeout:0.3 jobs in
  (match results with
   | [ h1; spun; h2 ] ->
     (match (h1.Campaign.status, h2.Campaign.status) with
      | Campaign.Finished _, Campaign.Finished _ -> ()
      | _ -> Alcotest.fail "healthy jobs must not be hit by the neighbour's watchdog");
     (match spun.Campaign.status with
      | Campaign.Failed { kind = Campaign.Timeout { seconds }; _ } ->
        Alcotest.(check bool) "timeout reports the configured budget" true
          (seconds = 0.3)
      | _ -> Alcotest.fail "spinning guest must be reported as Timeout")
   | _ -> Alcotest.fail "expected three results");
  Alcotest.(check int) "exactly one failure" 1 stats.Campaign.failed;
  Alcotest.(check int) "all jobs accounted for" 3 stats.Campaign.jobs

(* --- submission order --- *)

let test_order () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let atk = Scenario.attack Catalog.exp1_stack_smash in
  let jobs =
    List.init 16 (fun i ->
        image (Printf.sprintf "job-%02d" i) ~config:(atk.Scenario.config program) program)
  in
  let results, _ = Campaign.run_jobs ~domains:8 jobs in
  Alcotest.(check (list string))
    "results in submission order"
    (List.init 16 (Printf.sprintf "job-%02d"))
    (List.map (fun (r : Campaign.job_result) -> r.Campaign.name) results)

(* --- snapshot templates: restore must equal reload --- *)

let result_fingerprint (r : Ptaint_sim.Sim.result) =
  Printf.sprintf "%s | out:%s | net:%s | %d insns | %d sys | uid %d"
    (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome)
    (String.escaped r.Ptaint_sim.Sim.stdout)
    (String.escaped (String.concat "&" r.Ptaint_sim.Sim.net_sent))
    r.Ptaint_sim.Sim.instructions r.Ptaint_sim.Sim.syscalls r.Ptaint_sim.Sim.final_uid

let test_template_restore_determinism () =
  let module Sim = Ptaint_sim.Sim in
  let s = Catalog.exp1_stack_smash in
  let program = s.Scenario.build () in
  let atk_config = (Scenario.attack s).Scenario.config program in
  let tpl = Sim.prepare ~config:atk_config program in
  let reference = Sim.run ~config:atk_config program in
  (* Restoring the same snapshot repeatedly must reproduce the
     reference run bit for bit. *)
  let r1 = Sim.run_template ~config:atk_config tpl in
  let r2 = Sim.run_template ~config:atk_config tpl in
  Alcotest.(check string) "restore = reload"
    (result_fingerprint reference) (result_fingerprint r1);
  Alcotest.(check string) "second restore identical"
    (result_fingerprint r1) (result_fingerprint r2);
  (* The same template serves any policy (only argv/env/sources are
     baked into the image)... *)
  let unprotected =
    { atk_config with Ptaint_sim.Sim.policy = Ptaint_cpu.Policy.unprotected }
  in
  Alcotest.(check string) "other policy via same template"
    (result_fingerprint (Sim.run ~config:unprotected program))
    (result_fingerprint (Sim.run_template ~config:unprotected tpl));
  (* ...but a config disagreeing on the image-shaping fields is refused. *)
  match Sim.boot_template ~config:{ atk_config with Ptaint_sim.Sim.argv = [ "other" ] } tpl with
  | _ -> Alcotest.fail "boot_template must reject a mismatched argv"
  | exception Invalid_argument _ -> ()

let test_campaign_rerun_identical () =
  let jobs = coverage_jobs () in
  let first, _ = Campaign.run_jobs ~domains:4 jobs in
  let second, _ = Campaign.run_jobs ~domains:4 jobs in
  Alcotest.(check (list string))
    "re-running the campaign (fresh snapshots) is bit-identical"
    (List.map fingerprint first) (List.map fingerprint second)

(* --- streaming aggregation: run_stream vs the batch path --- *)

let stream_jobs () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let atk = (Scenario.attack Catalog.exp1_stack_smash).Scenario.config program in
  let policies =
    [ Ptaint_cpu.Policy.unprotected; Ptaint_cpu.Policy.control_only;
      Ptaint_cpu.Policy.default ]
  in
  List.concat_map
    (fun i ->
      List.map
        (fun policy ->
          Job.make
            ~tag:(Printf.sprintf "stream-%02d" i)
            ~config:{ atk with Ptaint_sim.Sim.policy }
            (Job.Image program))
        policies)
    (List.init 4 Fun.id)

let test_stream_matches_batch () =
  let jobs = stream_jobs () in
  let _, batch_stats = Campaign.run_jobs ~domains:4 jobs in
  let reference = Campaign.metrics_table batch_stats in
  List.iter
    (fun domains ->
      let tally, cursor = Campaign.run_stream ~domains (List.to_seq jobs) in
      Alcotest.(check int)
        (Printf.sprintf "cursor covers every job at -j%d" domains)
        (List.length jobs) cursor;
      Alcotest.(check string)
        (Printf.sprintf "streamed metrics table = batch table at -j%d" domains)
        reference
        (Campaign.metrics_table (Campaign.tally_stats tally)))
    [ 1; 4 ]

let test_stream_sink_accounts_for_failures () =
  (* every job — finished, timed out, crashed, malformed — must yield
     exactly one in-order JSONL line and exactly one tally entry *)
  let ok i =
    Job.make ~tag:(Printf.sprintf "ok-%d" i)
      (Job.Asm_source ".text\nmain: li $v0, 1\n li $a0, 0\n syscall\n")
  in
  let spin =
    Job.with_timeout 0.2
      (Job.make ~tag:"spin"
         ~config:Ptaint_sim.Sim.Config.(default |> with_max_instructions 1_000_000_000)
         (Job.Asm_source ".text\nmain: j main\n"))
  in
  let bad_c = Job.make ~tag:"bad-c" (Job.C_source "int main( { return 0; }") in
  let crash =
    (* an injection into a non-existent register slot raises inside the
       worker — the one failure kind classified as Crashed *)
    Job.with_injections
      [ { Ptaint_fi.Fi.at = 1; fault = Ptaint_fi.Fi.Reg_taint_loss { slot = 999 } } ]
      (ok 99)
  in
  let jobs = [ ok 0; spin; ok 1; bad_c; crash; ok 2 ] in
  let lines = ref [] in
  let tally, cursor =
    Campaign.run_stream ~domains:3
      ~on_result:(fun s -> lines := Campaign.jsonl_of_summary s :: !lines)
      (List.to_seq jobs)
  in
  let lines = List.rev !lines in
  Alcotest.(check int) "one JSONL line per job" (List.length jobs) (List.length lines);
  Alcotest.(check int) "cursor = job count" (List.length jobs) cursor;
  let stats = Campaign.tally_stats tally in
  Alcotest.(check int) "every job tallied" (List.length jobs) stats.Campaign.jobs;
  Alcotest.(check int) "three failures counted" 3 stats.Campaign.failed;
  List.iteri
    (fun i line ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d carries its submission index" i)
        true
        (contains line (Printf.sprintf "\"i\":%d," i)))
    lines;
  List.iter2
    (fun (j : Job.t) line ->
      Alcotest.(check bool)
        (Printf.sprintf "line for %s names its job" j.Job.tag)
        true
        (contains line (Printf.sprintf "\"tag\":%S" j.Job.tag)))
    jobs lines

let test_checkpoint_roundtrip () =
  let tally, cursor = Campaign.run_stream ~domains:2 (List.to_seq (stream_jobs ())) in
  let m =
    { Checkpoint.id = "campaign-test v1"; total = 42; cursor;
      elapsed_us = 123_456_789; dump = Campaign.dump_tally tally }
  in
  let path = Filename.temp_file "ptaint-ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Checkpoint.save ~path m;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "save writes render's text" (Checkpoint.render m) text;
  (match Checkpoint.parse text with
   | Error e -> Alcotest.fail ("manifest failed to load: " ^ e)
   | Ok m' ->
     Alcotest.(check bool) "manifest round-trips exactly" true (m' = m);
     Alcotest.(check string) "reloaded tally renders byte-identically"
       (Campaign.metrics_table (Campaign.tally_stats tally))
       (Campaign.metrics_table
          (Campaign.tally_stats (Campaign.load_tally m'.Checkpoint.dump))));
  (* a manifest without elapsed_us, or of format v1, is refused *)
  let refused name edit =
    let lines = List.filter_map edit (String.split_on_char '\n' text) in
    match Checkpoint.parse (String.concat "\n" lines) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s manifest accepted" name
  in
  refused "elapsed_us-free" (fun l ->
      if String.starts_with ~prefix:"elapsed_us" l then None else Some l);
  refused "v1" (fun l -> Some (if l = "ptaint-checkpoint v2" then "ptaint-checkpoint v1" else l))

(* Each manifest has one text: every truncation and every single-byte
   change of a saved manifest either fails to parse or parses to a
   manifest that renders to exactly the changed bytes. *)
let test_checkpoint_sweep () =
  let tally, cursor = Campaign.run_stream ~domains:1 (List.to_seq (stream_jobs ())) in
  let m =
    { Checkpoint.id = "sweep"; total = 12; cursor; elapsed_us = 1_234;
      dump = Campaign.dump_tally tally }
  in
  let path = Filename.temp_file "ptaint-ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Checkpoint.save ~path m;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let check what bytes =
    match Checkpoint.parse bytes with
    | Error _ -> ()
    | Ok m' ->
      if Checkpoint.render m' <> bytes then
        Alcotest.failf "%s parses but renders to other bytes:\n%s" what bytes
  in
  for n = 0 to String.length text - 1 do
    check (Printf.sprintf "prefix %d" n) (String.sub text 0 n)
  done;
  let b = Bytes.of_string text in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    for x = 1 to 255 do
      Bytes.set b i (Char.chr (Char.code orig lxor x));
      check (Printf.sprintf "byte %d ^ 0x%02x" i x) (Bytes.to_string b)
    done;
    Bytes.set b i orig
  done

let test_truncate_jsonl () =
  let path = Filename.temp_file "ptaint-sink" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  for i = 0 to 9 do Printf.fprintf oc "{\"i\":%d}\n" i done;
  close_out oc;
  (match Checkpoint.truncate_jsonl ~path ~lines:4 with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "sink trimmed to the manifest cursor" 4 !n;
  (match Checkpoint.truncate_jsonl ~path ~lines:9 with
   | Ok () -> Alcotest.fail "a sink shorter than the cursor must be refused"
   | Error _ -> ());
  (match Checkpoint.truncate_jsonl ~path ~lines:0 with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "lines=0 removes the sink" false (Sys.file_exists path)

(* --- image keys: Image payloads are keyed by content --- *)

(* Two programs that differ only in one immediate, deep in the
   instruction array: a key that stopped hashing early would give them
   one boot image, and job "b" would run program "a". *)
let test_image_key_by_content () =
  let exit_with n =
    Ptaint_asm.Assembler.assemble_exn
      (Printf.sprintf ".text\nmain: li $v0, 1\n li $a0, %d\n syscall\n" n)
  in
  let a = image "a" (exit_with 0) and b = image "b" (exit_with 7) in
  Alcotest.(check bool) "different programs, different keys" false
    (Job.image_key a = Job.image_key b);
  Alcotest.(check string) "equal content, equal key" (Job.image_key a)
    (Job.image_key (image "a'" (exit_with 0)));
  (* The key is an exact encoding, not a digest: inputs that a
     separator-joined or digest key could conflate must differ. *)
  let src text = Job.make ~tag:"src" (Job.C_source text) in
  let with_config f text =
    Job.make ~tag:"cfg" ~config:(f Ptaint_sim.Sim.Config.default) (Job.C_source text)
  in
  let differ what x y =
    Alcotest.(check bool) (what ^ ": different keys") false (Job.image_key x = Job.image_key y)
  in
  let argv v = with_config (Ptaint_sim.Sim.Config.with_argv v) "int main(void) { return 0; }" in
  differ "argv [\"a b\"] vs [\"a\"; \"b\"]" (argv [ "a b" ]) (argv [ "a"; "b" ]);
  differ "argv [\"a\\000b\"] vs [\"a\"; \"b\"]" (argv [ "a\000b" ]) (argv [ "a"; "b" ]);
  let env e = with_config (Ptaint_sim.Sim.Config.with_env e) "int main(void) { return 0; }" in
  differ "env (a, b=c) vs (a=b, c)" (env [ ("a", "b=c") ]) (env [ ("a=b", "c") ]);
  let sources s =
    with_config (Ptaint_sim.Sim.Config.with_sources s) "int main(void) { return 0; }"
  in
  let none = Ptaint_os.Sources.none in
  let alone =
    [ ("network", { none with Ptaint_os.Sources.network = true });
      ("file", { none with Ptaint_os.Sources.file = true });
      ("stdin", { none with Ptaint_os.Sources.stdin = true });
      ("args", { none with Ptaint_os.Sources.args = true });
      ("env", { none with Ptaint_os.Sources.env = true }) ]
  in
  List.iter
    (fun (name, flags) ->
      differ (name ^ " alone vs none") (sources flags) (sources none);
      List.iter
        (fun (other, flags') ->
          if other <> name then
            differ (name ^ " alone vs " ^ other ^ " alone") (sources flags) (sources flags'))
        alone)
    alone;
  let text = ".text\nmain: li $v0, 1\n syscall\n" in
  differ "asm vs C payload" (Job.make ~tag:"asm" (Job.Asm_source text)) (src text);
  differ "NUL bytes in the source" (src "int x;\000int y;") (src "int x;\000int z;");
  differ "argv [\"\\000\"] vs [\"\"]" (argv [ "\000" ]) (argv [ "" ]);
  Alcotest.(check string) "equal source and config, equal key"
    (Job.image_key (env [ ("k", "v") ]))
    (Job.image_key (env [ ("k", "v") ]));
  let status (r : Campaign.job_result) =
    Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome (Campaign.result_exn r).Ptaint_sim.Sim.outcome
  in
  let collected, _ = Campaign.run_jobs ~domains:1 [ a; b ] in
  Alcotest.(check (list string)) "run_jobs runs each job's own program"
    [ "exited with status 0"; "exited with status 7" ] (List.map status collected);
  let streamed = ref [] in
  ignore
    (Campaign.run_stream ~domains:1
       ~on_result:(fun s -> streamed := s.Campaign.s_exit_code :: !streamed)
       (List.to_seq [ a; b ]));
  Alcotest.(check (list int)) "run_stream runs each job's own program" [ 0; 7 ]
    (List.rev !streamed)

(* --- Sim conveniences --- *)

(* Collected results keep their machines: two jobs run back to back on
   one domain must both still describe their own run afterwards — an
   arena boot would have rewound the first job's machine into the
   second's. *)
let test_run_jobs_results_intact () =
  let program = Catalog.exp1_stack_smash.Scenario.build () in
  let atk = Scenario.attack Catalog.exp1_stack_smash in
  let benign =
    match Scenario.benign Catalog.exp1_stack_smash with
    | Some c -> c
    | None -> Alcotest.fail "exp1 should have a benign case"
  in
  let configs = [ atk.Scenario.config program; benign.Scenario.config program ] in
  let machine_print (r : Ptaint_sim.Sim.result) =
    let m = r.Ptaint_sim.Sim.machine in
    let ms = Ptaint_mem.Memory.stats m.Ptaint_cpu.Machine.mem in
    Printf.sprintf "%s | icount %d | pc %08x | %d loads | %d stores | %d tainted loads"
      (result_fingerprint r) m.Ptaint_cpu.Machine.icount m.Ptaint_cpu.Machine.pc
      ms.Ptaint_mem.Memory.loads ms.Ptaint_mem.Memory.stores
      ms.Ptaint_mem.Memory.tainted_loads
  in
  let collected, _ =
    Campaign.run_jobs ~domains:1 (List.mapi (fun i config -> image (string_of_int i) ~config program) configs)
  in
  let fresh = List.map (fun config -> Ptaint_sim.Sim.run ~config program) configs in
  Alcotest.(check (list string)) "collected results = fresh runs, machines included"
    (List.map machine_print fresh)
    (List.map (fun r -> machine_print (Campaign.result_exn r)) collected)

let test_config_policy_labels () =
  let mode label =
    Ptaint_sim.Sim.Config.(default |> with_policy_label label).Ptaint_sim.Sim.policy
      .Ptaint_cpu.Policy.mode
  in
  Alcotest.(check bool) "full = pointer taintedness" true
    (mode "full" = Ptaint_cpu.Policy.Pointer_taintedness);
  Alcotest.(check bool) "minos alias" true
    (mode "minos" = Ptaint_cpu.Policy.Control_data_only);
  Alcotest.(check bool) "none" true (mode "none" = Ptaint_cpu.Policy.No_protection);
  (match mode "bogus" with
   | _ -> Alcotest.fail "unknown label must be rejected"
   | exception Invalid_argument _ -> ());
  match Ptaint_sim.Sim.policy_of_label "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "policy_of_label must reject unknown labels"

(* --- the image cache --- *)

(* A three-instruction guest exiting with status [i]: one distinct
   image per [i]. *)
let exit_job i =
  Job.make ~tag:(Printf.sprintf "exit-%d" i)
    (Job.Asm_source (Printf.sprintf ".text\nmain: li $v0, 1\n li $a0, %d\n syscall\n" i))

let cache_counter images name =
  match List.assoc_opt name (Campaign.Images.counters images) with
  | Some v -> v
  | None -> Alcotest.failf "no cache %s counter" name

(* LRU at capacity 3: a hit refreshes its entry, an insert into a full
   cache evicts the least recently used entry first, and the table
   never holds more than [capacity] images. *)
let test_images_lru () =
  let images = Campaign.Images.create ~capacity:3 in
  let obtain i ~hit =
    let image, was_hit = Campaign.Images.obtain images (exit_job i) in
    Alcotest.(check bool) (Printf.sprintf "exit-%d hit flag" i) hit was_hit;
    Alcotest.(check bool) "within capacity" true (cache_counter images "entries" <= 3);
    image
  in
  let first0 = obtain 0 ~hit:false in
  ignore (obtain 1 ~hit:false);
  ignore (obtain 2 ~hit:false);
  Alcotest.(check int) "full" 3 (cache_counter images "entries");
  Alcotest.(check int) "nothing evicted yet" 0 (cache_counter images "evictions");
  Alcotest.(check bool) "a hit returns the cached image" true (obtain 0 ~hit:true == first0);
  (* 1 is now the least recently used: inserting 3 evicts it *)
  ignore (obtain 3 ~hit:false);
  Alcotest.(check int) "one eviction" 1 (cache_counter images "evictions");
  Alcotest.(check bool) "the recently used image survived" true (obtain 0 ~hit:true == first0);
  ignore (obtain 3 ~hit:true);
  ignore (obtain 2 ~hit:true);
  (* 1 was the victim; bringing it back evicts 0, now the oldest use *)
  ignore (obtain 1 ~hit:false);
  Alcotest.(check int) "two evictions" 2 (cache_counter images "evictions");
  ignore (obtain 0 ~hit:false);
  Alcotest.(check int) "three evictions" 3 (cache_counter images "evictions");
  Alcotest.(check int) "entries" 3 (cache_counter images "entries");
  Alcotest.(check int) "capacity" 3 (cache_counter images "capacity");
  match Campaign.Images.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* Two builds of one key: the first published image survives, and the
   loser gets the survivor back — deterministically through [add], and
   through [obtain] from two domains racing on fresh keys. *)
let test_images_race () =
  let job = exit_job 7 in
  let program = Job.program job in
  let images = Campaign.Images.create ~capacity:2 in
  let key = Job.image_key job in
  let a = Ptaint_sim.Sim.prepare ~config:job.Job.config program in
  let b = Ptaint_sim.Sim.prepare ~config:job.Job.config program in
  Alcotest.(check bool) "the first build is published" true (Campaign.Images.add images key a == a);
  Alcotest.(check bool) "the racing build gets the survivor" true
    (Campaign.Images.add images key b == a);
  Alcotest.(check int) "one entry" 1 (cache_counter images "entries");
  (match Campaign.Images.obtain images job with
   | image, true -> Alcotest.(check bool) "later jobs get the survivor" true (image == a)
   | _, false -> Alcotest.fail "the published image must hit");
  let images = Campaign.Images.create ~capacity:64 in
  for i = 0 to 19 do
    let job = exit_job (100 + i) in
    let go = Atomic.make false in
    let racer = Domain.spawn (fun () ->
        while not (Atomic.get go) do Domain.cpu_relax () done;
        fst (Campaign.Images.obtain images job))
    in
    Atomic.set go true;
    let mine = fst (Campaign.Images.obtain images job) in
    Alcotest.(check bool) (Printf.sprintf "exit-%d: both racers share one image" (100 + i))
      true (Domain.join racer == mine)
  done

(* An injected job boots a fresh machine from the cached image and
   mutates it: a flipped data word and a spuriously tainted pointer.
   The next clean job of the same image, through a fresh boot or the
   arena, must still match a fresh [Sim.run]: the copy-on-write
   snapshot never sees the injections. *)
let test_injection_leaves_image_clean () =
  let src =
    ".data\nptr: .word val\nval: .word 7\n\
     .text\nmain: la $t0, ptr\n lw $t1, 0($t0)\n lw $a0, 0($t1)\n li $v0, 1\n syscall\n"
  in
  let program = Ptaint_asm.Assembler.assemble_exn src in
  let sym = Ptaint_asm.Program.symbol_exn program in
  let fresh = Ptaint_sim.Sim.run program in
  let fingerprint (r : Ptaint_sim.Sim.result) =
    Format.asprintf "%a / %d insns / %S" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome
      r.Ptaint_sim.Sim.instructions r.Ptaint_sim.Sim.stdout
  in
  Alcotest.(check string) "the clean guest exits with the word it loads" "exited with status 7"
    (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome fresh.Ptaint_sim.Sim.outcome);
  let injected =
    Job.make ~tag:"injected"
      ~injections:
        [ { Ptaint_fi.Fi.at = 1; fault = Ptaint_fi.Fi.Flip_data { addr = sym "val"; bit = 1 } };
          { Ptaint_fi.Fi.at = 1; fault = Ptaint_fi.Fi.Spurious_taint { addr = sym "ptr"; len = 4 } } ]
      (Job.Asm_source src)
  in
  let clean = Job.make ~tag:"clean" (Job.Asm_source src) in
  List.iter
    (fun keep ->
      let images = Campaign.Images.create ~capacity:4 in
      let result (r : Campaign.job_result) =
        match r.Campaign.status with
        | Campaign.Finished res -> res
        | Campaign.Failed f -> Alcotest.failf "job failed: %s" f.Campaign.exn
      in
      let r, _ = Campaign.run_job ~keep images injected in
      Alcotest.(check bool) "the injected job alerts on its tainted pointer" true
        (Ptaint_sim.Sim.detected (result r));
      let r, hit = Campaign.run_job ~keep images clean in
      Alcotest.(check bool) "the clean job reuses the image" true hit;
      Alcotest.(check string) (Printf.sprintf "keep=%b: clean job = fresh run" keep)
        (fingerprint fresh) (fingerprint (result r)))
    [ true; false ]

(* More distinct programs than the engine's 128-image cache, twice
   over: every image is evicted before its second use and rebuilt, and
   every summary is still the job's own. *)
let test_stream_past_capacity () =
  let n = 150 in
  let jobs = List.init (2 * n) (fun k -> exit_job (k mod n)) in
  let summaries = ref [] in
  let _, cursor =
    Campaign.run_stream ~domains:1
      ~on_result:(fun s -> summaries := s :: !summaries)
      (List.to_seq jobs)
  in
  Alcotest.(check int) "every job folded" (2 * n) cursor;
  List.iteri
    (fun k (s : Campaign.job_summary) ->
      let ctx = Printf.sprintf "job %d (%s)" k s.Campaign.s_name in
      Alcotest.(check string) (ctx ^ ": tag") (Printf.sprintf "exit-%d" (k mod n)) s.s_name;
      Alcotest.(check string) (ctx ^ ": outcome") "exited" s.s_outcome;
      Alcotest.(check int) (ctx ^ ": exit code") (k mod n) s.s_exit_code;
      Alcotest.(check int) (ctx ^ ": instructions") 3 s.s_instructions;
      Alcotest.(check int) (ctx ^ ": syscalls") 1 s.s_syscalls)
    (List.rev !summaries)

let () =
  Alcotest.run "campaign"
    [ ( "engine",
        [ Alcotest.test_case "determinism: full coverage matrix" `Slow test_determinism;
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "submission order" `Quick test_order ] );
      ( "failure taxonomy",
        [ Alcotest.test_case "retry transient, never deterministic" `Quick
            test_retry_transient;
          Alcotest.test_case "worker backtrace preserved" `Quick test_worker_backtrace;
          Alcotest.test_case "guest fault classified" `Quick test_guest_fault_classified;
          Alcotest.test_case "loader errors classified" `Quick
            test_loader_error_classified;
          Alcotest.test_case "watchdog timeout in batch" `Quick test_watchdog_in_batch ] );
      ( "streaming",
        [ Alcotest.test_case "stream = batch metrics table" `Quick
            test_stream_matches_batch;
          Alcotest.test_case "sink accounts for every job" `Quick
            test_stream_sink_accounts_for_failures;
          Alcotest.test_case "checkpoint manifest round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint manifest sweep" `Quick test_checkpoint_sweep;
          Alcotest.test_case "sink truncation on resume" `Quick test_truncate_jsonl;
          Alcotest.test_case "Image payloads keyed by content" `Quick
            test_image_key_by_content ] );
      ( "snapshots",
        [ Alcotest.test_case "template restore = reload" `Quick
            test_template_restore_determinism;
          Alcotest.test_case "campaign rerun bit-identical" `Slow
            test_campaign_rerun_identical ] );
      ( "image cache",
        [ Alcotest.test_case "LRU eviction and counters" `Quick test_images_lru;
          Alcotest.test_case "racing builds share the survivor" `Quick test_images_race;
          Alcotest.test_case "an injected job leaves the image clean" `Quick
            test_injection_leaves_image_clean;
          Alcotest.test_case "stream past the engine's capacity" `Quick
            test_stream_past_capacity ] );
      ( "sim API",
        [ Alcotest.test_case "run_jobs results stay intact" `Quick
            test_run_jobs_results_intact;
          Alcotest.test_case "Config policy labels" `Quick test_config_policy_labels ] ) ]
