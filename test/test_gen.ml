(* The seeded program/attack generator: a job stream must be a pure
   function of its spec (same seed => identical programs, payloads and
   tags, however it is re-derived), and streaming it through the
   campaign engine must give byte-identical aggregates at any -j and
   across a checkpoint/resume boundary. *)

module Campaign = Ptaint_campaign.Campaign
module Gen = Ptaint_gen.Gen

let spec () = Gen.spec ~variants:4 ~seed:7 ~jobs:36 ()

let job_fingerprint (j : Ptaint_campaign.Job.t) =
  let payload =
    match j.Ptaint_campaign.Job.payload with
    | Ptaint_campaign.Job.C_source s -> s
    | _ -> "<non-C payload>"
  in
  Printf.sprintf "%s | stdin:%s | %s" j.Ptaint_campaign.Job.tag
    (String.escaped j.Ptaint_campaign.Job.config.Ptaint_sim.Sim.stdin)
    (String.escaped payload)

let test_stream_pure_function_of_seed () =
  let a = List.of_seq (Gen.jobs (spec ())) in
  let b = List.of_seq (Gen.jobs (spec ())) in
  Alcotest.(check (list string))
    "re-deriving the spec reproduces every program, payload and tag"
    (List.map job_fingerprint a) (List.map job_fingerprint b);
  (* random access agrees with the stream *)
  let t = spec () in
  List.iteri
    (fun i streamed ->
      Alcotest.(check string)
        (Printf.sprintf "job %d by index = job %d by stream" i i)
        (job_fingerprint (Gen.job t i))
        (job_fingerprint streamed))
    a;
  (* a different seed actually changes the stream *)
  let other = Gen.spec ~variants:4 ~seed:8 ~jobs:36 () in
  Alcotest.(check bool) "seed is load-bearing" false
    (List.map job_fingerprint (List.of_seq (Gen.jobs other))
     = List.map job_fingerprint a)

let stream_lines ?start ?tally t seq =
  let lines = ref [] in
  let tally, cursor =
    Campaign.run_stream ~domains:t ?start ?tally
      ~on_result:(fun s -> lines := Campaign.jsonl_of_summary s :: !lines)
      seq
  in
  (List.rev !lines, tally, cursor)

let test_stream_deterministic_across_j () =
  let j1, t1, c1 = stream_lines 1 (Gen.jobs (spec ())) in
  let j4, t4, c4 = stream_lines 4 (Gen.jobs (spec ())) in
  Alcotest.(check int) "same cursor" c1 c4;
  Alcotest.(check (list string)) "same JSONL lines in the same order" j1 j4;
  Alcotest.(check (list int)) "same detection sites"
    (Campaign.tally_sites t1) (Campaign.tally_sites t4);
  Alcotest.(check string) "same metrics table"
    (Campaign.metrics_table (Campaign.tally_stats t1))
    (Campaign.metrics_table (Campaign.tally_stats t4))

let test_resume_boundary () =
  let t = spec () in
  let _, whole, _ = stream_lines 2 (Gen.jobs t) in
  let k = 17 in
  let first, half, c1 = stream_lines 2 (Seq.take k (Gen.jobs t)) in
  Alcotest.(check int) "first leg stops at the boundary" k c1;
  (* survive the checkpoint round trip, as a resumed run would *)
  let restored = Campaign.load_tally (Campaign.dump_tally half) in
  let second, resumed, c2 =
    stream_lines 2 ~start:k ~tally:restored (Seq.drop k (Gen.jobs t))
  in
  Alcotest.(check int) "second leg reaches the end" (Gen.jobs_of t) c2;
  Alcotest.(check string) "resumed tally = uninterrupted tally"
    (Campaign.metrics_table (Campaign.tally_stats whole))
    (Campaign.metrics_table (Campaign.tally_stats resumed));
  Alcotest.(check (list int)) "resumed sites = uninterrupted sites"
    (Campaign.tally_sites whole) (Campaign.tally_sites resumed);
  (* the two legs' sink lines, concatenated, are the uninterrupted sink *)
  let uninterrupted, _, _ = stream_lines 2 (Gen.jobs t) in
  Alcotest.(check (list string)) "sink splices cleanly at the boundary"
    uninterrupted (first @ second)

let () =
  Alcotest.run "gen"
    [ ( "determinism",
        [ Alcotest.test_case "stream is a pure function of the seed" `Quick
            test_stream_pure_function_of_seed;
          Alcotest.test_case "byte-identical at -j1 and -j4" `Quick
            test_stream_deterministic_across_j;
          Alcotest.test_case "checkpoint/resume boundary" `Quick
            test_resume_boundary ] ) ]
